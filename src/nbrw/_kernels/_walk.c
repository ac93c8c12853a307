/* Compiled batch sampler for non-backtracking walks.
 *
 * Mirrors nbrw._kernels.fallback step for step; both must produce identical
 * output for identical (seed, sample range, length).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <numpy/arrayobject.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL

static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* The data of obj if it is a C-contiguous array of the given type, rank and
 * leading length (-1: any), writable where asked; else NULL with ValueError. */
static void *data_of(PyObject *obj, const char *name, int type, int ndim, npy_intp rows, int writable)
{
    PyArrayObject *a = (PyArrayObject *)obj;
    if (!PyArray_Check(obj) || !PyArray_EquivTypenums(PyArray_TYPE(a), type) || PyArray_NDIM(a) != ndim
        || !PyArray_IS_C_CONTIGUOUS(a) || (writable && !PyArray_ISWRITEABLE(a))
        || (rows >= 0 && PyArray_DIM(a, 0) != rows)) {
        PyErr_Format(PyExc_ValueError, "%s has the wrong type, shape or layout", name);
        return NULL;
    }
    return PyArray_DATA(a);
}

static PyObject *sample_counts(PyObject *self, PyObject *args)
{
    unsigned long long seed;
    long long first_sample, length;
    PyObject *flat_obj, *table_obj, *value_obj, *counts_obj, *end_obj;
    if (!PyArg_ParseTuple(args, "KLLOOOOO:sample_counts", &seed, &first_sample, &length, &flat_obj,
                          &table_obj, &value_obj, &counts_obj, &end_obj))
        return NULL;
    const int64_t *out_flat = data_of(flat_obj, "out_flat", NPY_INT64, 1, -1, 0);
    if (!out_flat)
        return NULL;
    npy_intp n_darts = PyArray_DIM((PyArrayObject *)flat_obj, 0);
    const int64_t *first = data_of(table_obj, "dart_table", NPY_INT64, 2, 3, 0);
    const int32_t *value_index = first ? data_of(value_obj, "value_index", NPY_INT32, 1, n_darts, 0) : NULL;
    int64_t *out_counts = value_index ? data_of(counts_obj, "out_counts", NPY_INT64, 2, -1, 1) : NULL;
    if (!out_counts)
        return NULL;
    npy_intp n_samples = PyArray_DIM((PyArrayObject *)counts_obj, 0);
    npy_intp n_values = PyArray_DIM((PyArrayObject *)counts_obj, 1);
    int32_t *out_end = data_of(end_obj, "out_end", NPY_INT32, 1, n_samples, 1);
    if (!out_end)
        return NULL;
    if (PyArray_DIM((PyArrayObject *)table_obj, 1) != n_darts || (n_darts == 0 && n_samples > 0)) {
        PyErr_SetString(PyExc_ValueError, "dart_table needs one column per dart, and a walk a dart");
        return NULL;
    }
    const int64_t *skip = first + n_darts, *outdeg = skip + n_darts;
    /* every index a walk can form stays inside its array */
    for (npy_intp e = 0; e < n_darts; e++) {
        if (out_flat[e] < 0 || out_flat[e] >= n_darts || first[e] < 0 || outdeg[e] < 1
            || outdeg[e] >= n_darts - first[e] || skip[e] < first[e] || skip[e] - first[e] > outdeg[e]
            || value_index[e] >= n_values) {
            PyErr_Format(PyExc_ValueError, "walk tables are inconsistent at dart %zd", e);
            return NULL;
        }
    }

    Py_BEGIN_ALLOW_THREADS
    uint64_t run = mix64(seed * GOLDEN + 0xD1B54A32D192ED03ULL);
    for (npy_intp s = 0; s < n_samples; s++) {
        uint64_t key = mix64(run + ((uint64_t)first_sample + (uint64_t)s + 1) * GOLDEN);
        int64_t e = (int64_t)(mix64(key + GOLDEN) % (uint64_t)n_darts); /* step 0: initial dart */
        for (long long i = 1; i <= length; i++) {
            if (value_index[e] >= 0)
                out_counts[s * n_values + value_index[e]] += 1;
            int64_t k = first[e];
            if (outdeg[e] > 1)
                k += (int64_t)(mix64(key + ((uint64_t)i + 1) * GOLDEN) % (uint64_t)outdeg[e]);
            e = out_flat[k + (k >= skip[e])]; /* the j-th successor: step over reverse(e) */
        }
        out_end[s] = (int32_t)e;
    }
    Py_END_ALLOW_THREADS
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"sample_counts", sample_counts, METH_VARARGS,
     "sample_counts(seed, first_sample, length, out_flat, dart_table, value_index, out_counts, out_end)\n"
     "Walk out_counts.shape[0] samples, accumulating per-value branch counts\n"
     "and recording the final dart of each walk."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_walk", NULL, -1, methods};

PyMODINIT_FUNC PyInit__walk(void)
{
    import_array();
    return PyModule_Create(&module);
}
