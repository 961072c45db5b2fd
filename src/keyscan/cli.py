"""Command-line interface.

Subcommands: right-key, left-key, verify, demazure, schur, enumerate.
Tableaux are read from a file argument or standard input in the text
format of :mod:`keyscan.tableau`; results go to standard output, traces
to standard error.

Exit codes: 1 for bad input, a malformed command line, unwritable output
or a result too large for memory, 2 for an oracle or engine disagreement
or any other internal error (an implementation bug), 3 for a
verification counterexample.

Each handler imports the modules it runs, so a subcommand loads only
what it needs, and reads their functions off the module at call time.

A command line that starts with a subcommand is parsed once, by that
subcommand's own parser; the full parser reads every other command line,
and one that the subcommand's parser leaves words of, so that usage and
help text have one source.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .tableau import (
    TableauError,
    _decimal,
    enumerate_tableaux,
    format_tableau,
    parse_tableau,
)


def _read_tableau(path):
    """The tableau in file ``path``, or on standard input for None or "-".
    Both are decoded strictly as UTF-8 from bytes: under the POSIX locale
    ``sys.stdin`` passes undecodable bytes on as surrogates."""
    stdin = path in (None, "-")
    try:
        if stdin:
            if sys.stdin is None:  # file descriptor 0 was closed at start
                raise TableauError("standard input is closed")
            # An io.StringIO (perfbench/run.py passes one) holds text, not bytes.
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(path, "rb") as f:
                data = f.read()
        text = data if isinstance(data, str) else data.decode("utf-8")
    except OSError as exc:
        raise TableauError(str(exc))
    except UnicodeDecodeError as exc:
        source = "standard input" if stdin else path
        raise TableauError(f"{source} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    return parse_tableau(text)


def _int_list(text):
    try:
        return tuple(_decimal(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise TableauError(f"not a list of integers: {text!r}")


class _StderrError(OSError):
    """A write to stderr failed; what stdout holds is still good."""


def _err(text):
    """Write ``text`` to stderr, or drop it when file descriptor 2 was
    closed at start (Python then sets ``sys.stderr`` to None)."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
        except OSError as exc:
            raise _StderrError(*exc.args) from exc


def _flushed(stream):
    """Flush ``stream``; False when that fails."""
    try:
        stream.flush()
    except OSError:
        return False
    return True


def _drop_buffered(stream, original):
    """Point a standard stream whose write failed at the null device, so
    that what it still buffers is dropped instead of failing again at exit."""
    if stream is original is not None:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)


def _check_oracle(key, oracle_key):
    """Report on stderr whether the jeu de taquin key agrees; exit code 2
    and the oracle's key on a disagreement."""
    if oracle_key == key:
        _err("AGREE\n")
        return 0
    _err("DISAGREE\n" + format_tableau(oracle_key))
    return 2


def _explain(label, traces):
    """Print each column's passes to stderr, one block per column."""
    for column, passes in enumerate(traces, start=1):
        _err(f"{label} column {column}:\n")
        for values in passes:
            _err("  (" + ",".join(map(str, values)) + ")\n")


class _Fault(Exception):
    """A :class:`TableauError` from a result built out of valid input: a
    bug, so ``main`` reports its cause as an internal error, not bad input."""


def _cmd_key(args):
    """right-key and left-key: the key of the tableau read, by the
    scanning function ``args.key`` of :mod:`keyscan.scanning`, its passes
    by ``args.trace`` under --explain, and the verdict of the jdt oracle
    ``args.key_oracle`` under --oracle."""
    from . import scanning

    t = _read_tableau(args.file)
    try:
        key = getattr(scanning, args.key)(t)
        if args.explain:
            _explain(args.label, getattr(scanning, args.trace)(t))
        sys.stdout.write(format_tableau(key))
        if not args.oracle:
            return 0
        from . import jdt

        return _check_oracle(key, getattr(jdt, args.key_oracle)(t))
    except TableauError as exc:
        raise _Fault from exc


def _cmd_verify(args):
    from . import verify

    report = verify.run_sweep(
        args.max_boxes, args.max_entry, jobs=args.jobs, check_swaps=args.check_swaps
    )
    for line in report.format_lines():
        print(line)
    return 0 if report.ok else 3


def _cmd_demazure(args):
    from . import demazure

    mu, w, n = _int_list(args.mu), _int_list(args.w), args.n
    try:
        if args.all_engines:
            by_scan = demazure.demazure_character(mu, w, n, engine="scan")
            by_oracle = demazure.demazure_character(mu, w, n, engine="oracle")
            by_ops = demazure.demazure_by_operators(mu, w, n)
            sys.stdout.write(demazure.format_polynomial(by_scan))
            if by_scan == by_oracle == by_ops:
                _err("ENGINES AGREE\n")
                return 0
            _err("ENGINES DISAGREE\n")
            for name, p in (("oracle", by_oracle), ("recursion", by_ops)):
                _err(f"-- {name}:\n" + demazure.format_polynomial(p))
            return 2
        if args.engine == "recursion":
            p = demazure.demazure_by_operators(mu, w, n)
        else:
            p = demazure.demazure_character(mu, w, n, engine=args.engine)
    except TableauError as exc:
        # The engines check their input first; if the input passes the
        # same checks again, the error came from a result: a fault.
        demazure.compose(w, mu, n)
        raise _Fault from exc
    sys.stdout.write(demazure.format_polynomial(p))
    return 0


def _cmd_schur(args):
    from . import demazure

    p = demazure.schur_polynomial(_int_list(args.mu), args.n)
    sys.stdout.write(demazure.format_polynomial(p))
    return 0


def _cmd_enumerate(args):
    count = 0
    for t in enumerate_tableaux(_int_list(args.shape), args.n):
        sys.stdout.write(format_tableau(t, header=False))
        sys.stdout.write("\n")
        count += 1
    _err(f"{count} tableaux\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads ``type=int`` options as tableau text reads entries: ASCII
    decimal only, so ``1_0`` and non-ASCII digits such as ``١`` are
    usage errors, named as argparse names a bad ``int``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _decimal)

    def print_help(self, file=None):
        # argparse drops a write error, so help sent to a full disk exits 0.
        (file or sys.stdout).write(self.format_help())


@functools.cache
def _subparsers() -> dict:
    """Each subcommand's own parser by name, as ``build_parser`` made it."""
    return {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call;
    it fills ``_subparsers``."""
    parser = _Parser(
        prog="keyscan",
        description="Right and left keys of semistandard tableaux, "
        "with jeu de taquin verification and Demazure characters.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    parsers = _subparsers()

    def sub(name, **kwargs):
        parsers[name] = subparsers.add_parser(name, **kwargs)
        return parsers[name]

    p = sub("right-key", help="right key by the scanning method")
    p.add_argument("file", nargs="?", help="tableau file (default: stdin)")
    p.add_argument("--explain", action="store_true", help="print EWIS passes to stderr")
    p.add_argument("--oracle", action="store_true", help="cross-check against jeu de taquin")
    p.set_defaults(func=_cmd_key, key="scanning_tableau", trace="scan_trace", label="start",
                   key_oracle="right_key_oracle")

    p = sub("left-key", help="left key by the scanning method")
    p.add_argument("file", nargs="?", help="tableau file (default: stdin)")
    p.add_argument("--explain", action="store_true",
                   help="print each pass's picks, right to left, to stderr")
    p.add_argument("--oracle", action="store_true", help="cross-check against jeu de taquin")
    p.set_defaults(func=_cmd_key, key="left_key", trace="left_trace", label="end",
                   key_oracle="left_key_oracle")

    p = sub("verify", help="exhaustive sweep against the oracles")
    p.add_argument("--max-boxes", type=int, required=True)
    p.add_argument("--max-entry", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--check-swaps", action="store_true",
                   help="also check frankness/rectification at every length swap")
    p.set_defaults(func=_cmd_verify)

    p = sub("demazure", help="Demazure character (key polynomial)")
    p.add_argument("--mu", required=True, help="partition, e.g. 2,1")
    p.add_argument("--w", required=True, help="permutation images, e.g. 3,1,2")
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--engine", choices=["scan", "oracle", "recursion"], default="scan")
    g.add_argument("--all-engines", action="store_true")
    p.set_defaults(func=_cmd_demazure)

    p = sub("schur", help="Schur polynomial as a tableau sum")
    p.add_argument("--mu", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_schur)

    p = sub("enumerate", help="all semistandard tableaux of a shape")
    p.add_argument("--shape", required=True, help="column lengths, e.g. 2,1")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def _parse(argv):
    """The namespace of ``argv``, as the full parser reads it.  A command
    line that starts with a subcommand is read by that subcommand's parser
    alone, as the full parser would hand it over; the full parser reads
    every other one, and one with words left over, and reports it."""
    parser = build_parser()
    own = _subparsers().get(argv[0]) if argv else None
    if own is not None:
        args, rest = own.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        if sys.stdout is None:  # file descriptor 1 was closed at start
            raise OSError("standard output is closed")
        try:
            args = _parse(sys.argv[1:] if argv is None else list(argv))
        except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
            code = 1 if exc.code else 0
        else:
            code = args.func(args)
        sys.stdout.flush()  # so that a write error is reported here, not at exit
        return code
    except TableauError as exc:
        code, message = 1, f"error: {exc}"
    except _Fault as exc:  # a key, oracle or engine result broke a tableau rule
        code, message = 2, f"internal error: {exc.__cause__!r}"
    except MemoryError:  # the input asks for more than this machine holds
        code, message = 1, "error: out of memory"
    except OSError as exc:  # unwritable output: a closed pipe, a full disk
        # Stdout keeps a result already written unless its own write failed.
        if not isinstance(exc, _StderrError) or not _flushed(sys.stdout):
            _drop_buffered(sys.stdout, sys.__stdout__)
        code, message = 1, f"error: {exc}"
    except Exception as exc:  # a bug: one line (repr escapes newlines), exit 2
        code, message = 2, f"internal error: {exc!r}"
    try:
        _err(message + "\n")
    except OSError:  # stderr is unwritable too: the exit code is the report
        _drop_buffered(sys.stderr, sys.__stderr__)
    return code


if __name__ == "__main__":
    sys.exit(main())
