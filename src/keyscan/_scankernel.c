/* Compiled scanning kernel.
 *
 * Same contract as keyscan._scan_py, with two entry points, each
 * returning a list of tuples of ints, in the order of its indices:
 * scan_columns(cols, starts) gives the scanning-tableau (right key)
 * columns at the 0-based start indices in starts, and
 * left_columns(cols, ends) the left-key columns at the 0-based indices in
 * ends.  cols are the columns of a semistandard tableau and the indices
 * are strictly increasing.  An index outside 0..len(cols) - 1 raises
 * IndexError.  Entries are read into C long longs; a call with an entry
 * that does not fit, or whose left walk finds no entry to pick (which
 * only a non-semistandard input causes), is handed to keyscan._scan_py,
 * so any Python int is answered correctly and a bad input raises the
 * pure kernel's error.
 *
 * Both scans run column-major: every pass of one index is carried along
 * at once, and each column is visited once for all of them.  scan_start
 * offers a column's bottom alive box to the passes in turn; in left_end
 * the picks of successive passes strictly decrease, so one bottom-to-top
 * walk of each column serves every pass.  Unlike the pure kernel, which
 * sweeps once for all indices as nested level sets, this kernel scans
 * each index on its own, so it also answers inputs outside the contract
 * (an empty column, a later column taller than the start) by the
 * paper's passes.
 *
 * Selected by keyscan.scanning whenever it is importable; setup.py builds
 * it with a plain C compiler.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* The arguments of one call, with every entry read into data. */
typedef struct {
    PyObject *cols;       /* the columns, as a PySequence_Fast */
    PyObject *indices;    /* the start or end indices, as a PySequence_Fast */
    PyObject **fast;      /* column j as a PySequence_Fast */
    Py_ssize_t k;         /* number of columns */
    Py_ssize_t *base;     /* column j holds length[j] entries at data + base[j] */
    Py_ssize_t *length;
    long long *data;
    long long *buf;       /* scratch, as many slots as the tallest column */
} Columns;

/* Results of columns_read and of the per-index functions. */
enum { OK = 0, FAILED = -1, HAND_OVER = 1 };

static void
columns_free(Columns *c)
{
    Py_ssize_t j;

    if (c->fast != NULL) {
        for (j = 0; j < c->k; j++)
            Py_XDECREF(c->fast[j]);
    }
    PyMem_Free(c->fast);
    PyMem_Free(c->base);
    PyMem_Free(c->length);
    PyMem_Free(c->data);
    PyMem_Free(c->buf);
    Py_XDECREF(c->indices);
    Py_XDECREF(c->cols);
}

/* Fills c from the two arguments.  HAND_OVER when an entry does not fit
 * a long long; c->cols and c->indices are then set. */
static int
columns_read(Columns *c, PyObject *cols, PyObject *indices)
{
    Py_ssize_t j, r, total = 0, height = 0, pos = 0;
    int overflow = 0;

    c->cols = PySequence_Fast(cols, "cols must be a sequence of columns");
    if (c->cols == NULL)
        return FAILED;
    c->indices = PySequence_Fast(indices, "indices must be iterable");
    if (c->indices == NULL)
        return FAILED;
    c->k = PySequence_Fast_GET_SIZE(c->cols);
    c->fast = PyMem_New(PyObject *, c->k + 1);
    c->base = PyMem_New(Py_ssize_t, c->k + 1);
    c->length = PyMem_New(Py_ssize_t, c->k + 1);
    if (c->fast == NULL || c->base == NULL || c->length == NULL) {
        PyErr_NoMemory();
        return FAILED;
    }
    for (j = 0; j < c->k; j++)
        c->fast[j] = NULL;
    for (j = 0; j < c->k; j++) {
        c->fast[j] = PySequence_Fast(PySequence_Fast_GET_ITEM(c->cols, j),
                                     "each column must be a sequence");
        if (c->fast[j] == NULL)
            return FAILED;
        c->base[j] = total;
        c->length[j] = PySequence_Fast_GET_SIZE(c->fast[j]);
        total += c->length[j];
        if (c->length[j] > height)
            height = c->length[j];
    }

    c->data = PyMem_New(long long, total + 1);
    c->buf = PyMem_New(long long, height + 1);
    if (c->data == NULL || c->buf == NULL) {
        PyErr_NoMemory();
        return FAILED;
    }
    for (j = 0; j < c->k; j++) {
        PyObject **items = PySequence_Fast_ITEMS(c->fast[j]);
        for (r = 0; r < c->length[j]; r++) {
            /* Checked first, so that no __index__ method can run and
             * change a column while its items are read. */
            if (!PyLong_Check(items[r])) {
                PyErr_SetString(PyExc_TypeError, "entries must be ints");
                return FAILED;
            }
            c->data[pos] = PyLong_AsLongLongAndOverflow(items[r], &overflow);
            if (overflow)
                return HAND_OVER;
            if (c->data[pos] == -1 && PyErr_Occurred())
                return FAILED;
            pos++;
        }
    }
    return OK;
}

/* buf[m - 1], ..., buf[0] as a new tuple. */
static PyObject *
reversed_tuple(const long long *buf, Py_ssize_t m)
{
    Py_ssize_t i;
    PyObject *out = PyTuple_New(m);

    if (out == NULL)
        return NULL;
    for (i = 0; i < m; i++) {
        PyObject *v = PyLong_FromLongLong(buf[m - 1 - i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, v);
    }
    return out;
}

/* Column s of the scanning tableau, as a new tuple in *out.  last[p] is
 * pass p's last member so far; each later column offers its bottom alive
 * box to passes 0, 1, ... in turn, and pass p takes it iff it is at least
 * last[p]. */
static int
scan_start(const Columns *c, Py_ssize_t s, PyObject **out)
{
    long long *last = c->buf;
    Py_ssize_t h = c->length[s], p, j;

    for (p = 0; p < h; p++)
        last[p] = c->data[c->base[s] + h - 1 - p];
    for (j = s + 1; j < c->k; j++) {
        const long long *col = c->data + c->base[j];
        Py_ssize_t a = c->length[j] - 1;
        for (p = 0; p < h && a >= 0; p++) {
            if (col[a] >= last[p])
                last[p] = col[a--];
        }
    }
    *out = reversed_tuple(last, h);
    return *out == NULL ? FAILED : OK;
}

/* Column e of the left key, as a new tuple in *out; HAND_OVER when a walk
 * runs past the top of a column. */
static int
left_end(const Columns *c, Py_ssize_t e, PyObject **out)
{
    long long *pick = c->buf;
    Py_ssize_t h = c->length[e], p, j;

    for (p = 0; p < h; p++)
        pick[p] = c->data[c->base[e] + h - 1 - p];
    for (j = e - 1; j >= 0; j--) {
        const long long *col = c->data + c->base[j];
        Py_ssize_t i = c->length[j] - 1;
        for (p = 0; p < h; p++) {
            while (i >= 0 && col[i] > pick[p])
                i--;
            if (i < 0)
                return HAND_OVER;
            pick[p] = col[i--];
        }
    }
    *out = reversed_tuple(pick, h);
    return *out == NULL ? FAILED : OK;
}

typedef int (*column_fn)(const Columns *, Py_ssize_t, PyObject **);

/* One entry point: the list of fn's columns at the given indices, or the
 * pure kernel's answer when fn or the reading hands the call over. */
static PyObject *
run(PyObject *const *args, Py_ssize_t nargs, const char *name,
    const char *what, column_fn fn)
{
    Columns c = {0};
    PyObject *result = NULL;
    Py_ssize_t i, n;
    int status;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes 2 arguments (%zd given)",
                     name, nargs);
        return NULL;
    }
    status = columns_read(&c, args[0], args[1]);
    if (status == OK) {
        n = PySequence_Fast_GET_SIZE(c.indices);
        result = PyList_New(n);
        if (result == NULL)
            status = FAILED;
        for (i = 0; status == OK && i < n; i++) {
            PyObject *col;
            Py_ssize_t s = PyNumber_AsSsize_t(
                PySequence_Fast_GET_ITEM(c.indices, i), PyExc_IndexError);
            if (s == -1 && PyErr_Occurred()) {
                status = FAILED;
            } else if (s < 0 || s >= c.k) {
                PyErr_Format(PyExc_IndexError, "%s column %zd outside 0..%zd",
                             what, s, c.k - 1);
                status = FAILED;
            } else {
                status = fn(&c, s, &col);
                if (status == OK)
                    PyList_SET_ITEM(result, i, col);
            }
        }
    }
    if (status != OK)
        Py_CLEAR(result);
    if (status == HAND_OVER) {
        PyObject *mod = PyImport_ImportModule("keyscan._scan_py");
        if (mod != NULL) {
            result = PyObject_CallMethod(mod, name, "OO", c.cols, c.indices);
            Py_DECREF(mod);
        }
    }
    columns_free(&c);
    return result;
}

static PyObject *
scan_columns(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return run(args, nargs, "scan_columns", "start", scan_start);
}

static PyObject *
left_columns(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return run(args, nargs, "left_columns", "end", left_end);
}

static PyMethodDef scankernel_methods[] = {
    {"scan_columns", (PyCFunction)(void (*)(void))scan_columns, METH_FASTCALL,
     "scan_columns(cols, starts) -> list of scanning-tableau columns at the "
     "0-based start indices in starts."},
    {"left_columns", (PyCFunction)(void (*)(void))left_columns, METH_FASTCALL,
     "left_columns(cols, ends) -> list of left-key columns at the 0-based "
     "indices in ends."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef scankernel_module = {
    PyModuleDef_HEAD_INIT,
    "_scankernel",
    "Compiled scanning kernel; same contract as keyscan._scan_py.",
    -1,
    scankernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__scankernel(void)
{
    return PyModule_Create(&scankernel_module);
}
