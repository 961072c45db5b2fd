"""Right and left keys of semistandard Young tableaux.

Computes keys by the direct scanning (EWIS) method, verifies them against
an independent jeu de taquin oracle, and uses them to compute Demazure
characters (key polynomials).

Each public name is imported from its module on first use, so
``import keyscan`` loads no submodule until one is needed.
"""

import importlib

# Public name -> the submodule that defines it.
_HOME = {
    "SkewTableau": "tableau",
    "SparsePolynomial": "demazure",
    "Tableau": "tableau",
    "TableauError": "tableau",
    "conjugate": "tableau",
    "count_tableaux": "tableau",
    "demazure_by_operators": "demazure",
    "demazure_character": "demazure",
    "entrywise_leq": "tableau",
    "enumerate_tableaux": "tableau",
    "ewis": "scanning",
    "format_polynomial": "demazure",
    "format_tableau": "tableau",
    "key_of_composition": "demazure",
    "left_key": "scanning",
    "left_key_oracle": "jdt",
    "parse_tableau": "tableau",
    "rectify": "jdt",
    "right_key_oracle": "jdt",
    "scan_column": "scanning",
    "scanning_tableau": "scanning",
    "schur_polynomial": "demazure",
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    """Import a public name's module on first access and keep the name
    here; ``keyscan.jdt`` and the other modules of the table resolve too."""
    home = _HOME.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f".{home}", __name__), name)
        globals()[name] = value
        return value
    if name in _HOME.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})
