/* Compiled scanning kernel.
 *
 * Same contract as keyscan._scan_py: scan_columns(cols, starts) returns
 * the list of scanning-tableau columns, as tuples of ints, at the 0-based
 * start indices in starts, in order, and raises IndexError on a start
 * outside 0..len(cols) - 1.  Entries are read into C long longs; a call
 * with an entry that does not fit is handed to keyscan._scan_py, so any
 * Python int is answered correctly.
 *
 * Selected by keyscan.scanning whenever it is importable; setup.py builds
 * it with a plain C compiler.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

/* Column s of the scanning tableau, as a new tuple.  Column j holds
 * length[j] entries at data + base[j]; alive (k slots) and buf (at least
 * length[s] slots) are scratch space. */
static PyObject *
scan_start(const long long *data, const Py_ssize_t *base,
           const Py_ssize_t *length, Py_ssize_t k, Py_ssize_t s,
           Py_ssize_t *alive, long long *buf)
{
    Py_ssize_t j, m = 0, end = k;
    PyObject *out;

    for (j = s; j < k; j++)
        alive[j] = length[j];
    while (alive[s] > 0) {
        /* LLONG_MIN, not the pure kernel's -1: equal on positive entries,
         * and the start column's box is always taken, so the loop ends
         * on any input. */
        long long last = LLONG_MIN;
        while (alive[end - 1] == 0)
            end--;
        for (j = s; j < end; j++) {
            Py_ssize_t a = alive[j];
            if (a == 0)
                continue;
            if (data[base[j] + a - 1] >= last) {
                last = data[base[j] + a - 1];
                alive[j] = a - 1;
            }
        }
        buf[m++] = last;
    }
    out = PyTuple_New(m);
    if (out == NULL)
        return NULL;
    for (j = 0; j < m; j++) {
        PyObject *v = PyLong_FromLongLong(buf[m - 1 - j]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, j, v);
    }
    return out;
}

static PyObject *
scan_columns_py(PyObject *cols, PyObject *starts)
{
    PyObject *result, *mod = PyImport_ImportModule("keyscan._scan_py");

    if (mod == NULL)
        return NULL;
    result = PyObject_CallMethod(mod, "scan_columns", "OO", cols, starts);
    Py_DECREF(mod);
    return result;
}

static PyObject *
scan_columns(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *cols = NULL, *starts = NULL, *result = NULL;
    PyObject **fast = NULL;
    Py_ssize_t *base = NULL, *length = NULL, *alive = NULL;
    long long *data = NULL, *buf = NULL;
    Py_ssize_t k = 0, nstarts, i, r, total = 0, height = 0, pos = 0;
    int overflow = 0;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "scan_columns() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    cols = PySequence_Fast(args[0], "cols must be a sequence of columns");
    if (cols == NULL)
        return NULL;
    starts = PySequence_Fast(args[1], "starts must be iterable");
    if (starts == NULL)
        goto done;
    k = PySequence_Fast_GET_SIZE(cols);
    nstarts = PySequence_Fast_GET_SIZE(starts);

    fast = PyMem_New(PyObject *, k + 1);
    base = PyMem_New(Py_ssize_t, k + 1);
    length = PyMem_New(Py_ssize_t, k + 1);
    alive = PyMem_New(Py_ssize_t, k + 1);
    if (fast == NULL || base == NULL || length == NULL || alive == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < k; i++)
        fast[i] = NULL;
    for (i = 0; i < k; i++) {
        fast[i] = PySequence_Fast(PySequence_Fast_GET_ITEM(cols, i),
                                  "each column must be a sequence");
        if (fast[i] == NULL)
            goto done;
        base[i] = total;
        length[i] = PySequence_Fast_GET_SIZE(fast[i]);
        total += length[i];
        if (length[i] > height)
            height = length[i];
    }

    data = PyMem_New(long long, total + 1);
    buf = PyMem_New(long long, height + 1);
    if (data == NULL || buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < k; i++) {
        PyObject **items = PySequence_Fast_ITEMS(fast[i]);
        for (r = 0; r < length[i]; r++) {
            /* Checked first, so that no __index__ method can run and
             * change a column while its items are read. */
            if (!PyLong_Check(items[r])) {
                PyErr_SetString(PyExc_TypeError, "entries must be ints");
                goto done;
            }
            data[pos] = PyLong_AsLongLongAndOverflow(items[r], &overflow);
            if (overflow) {
                result = scan_columns_py(cols, starts);
                goto done;
            }
            if (data[pos] == -1 && PyErr_Occurred())
                goto done;
            pos++;
        }
    }

    result = PyList_New(nstarts);
    if (result == NULL)
        goto done;
    for (i = 0; i < nstarts; i++) {
        PyObject *col;
        Py_ssize_t s = PyNumber_AsSsize_t(
            PySequence_Fast_GET_ITEM(starts, i), PyExc_IndexError);
        if (s == -1 && PyErr_Occurred())
            goto fail;
        if (s < 0 || s >= k) {
            PyErr_Format(PyExc_IndexError, "start column %zd outside 0..%zd",
                         s, k - 1);
            goto fail;
        }
        col = scan_start(data, base, length, k, s, alive, buf);
        if (col == NULL)
            goto fail;
        PyList_SET_ITEM(result, i, col);
    }
    goto done;

fail:
    Py_CLEAR(result);
done:
    if (fast != NULL) {
        for (i = 0; i < k; i++)
            Py_XDECREF(fast[i]);
    }
    PyMem_Free(fast);
    PyMem_Free(base);
    PyMem_Free(length);
    PyMem_Free(alive);
    PyMem_Free(data);
    PyMem_Free(buf);
    Py_XDECREF(starts);
    Py_DECREF(cols);
    return result;
}

static PyMethodDef scankernel_methods[] = {
    {"scan_columns", (PyCFunction)(void (*)(void))scan_columns, METH_FASTCALL,
     "scan_columns(cols, starts) -> list of scanning-tableau columns at the "
     "0-based start indices in starts."},
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
