/* Compiled batch sampler for non-backtracking walks, and the builder of the
 * dart tables it reads.
 *
 * Mirrors nbrw._kernels.fallback: both must produce identical output for
 * identical (seed, sample range, length).  Draw number i of a walk is a pure
 * function of (stream key, i), so a walk on a suspended path jumps to the
 * path's last dart and adds the path length to its step counter; it draws
 * only where it branches.  Arrays come in through the buffer protocol, so a
 * numpy array, an array.array or a memoryview all pass, and nothing here
 * needs numpy.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL

static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Fills view with the buffer of obj if it is a C-contiguous array of native
 * signed integers of itemsize bytes, of the given rank and leading length
 * (-1: any), writable where asked; else -1 with ValueError and nothing held. */
static int get_array(PyObject *obj, Py_buffer *view, const char *name, Py_ssize_t itemsize, int ndim,
                     Py_ssize_t rows, int writable)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0)) < 0) {
        PyErr_Clear();
    } else {
        const char *f = view->format ? view->format : "B";
        f += *f == '@';
        if (view->itemsize == itemsize && f[0] && strchr("ilq", f[0]) && !f[1] && view->ndim == ndim
            && (rows < 0 || view->shape[0] == rows))
            return 0;
        PyBuffer_Release(view);
    }
    PyErr_Format(PyExc_ValueError, "%s has the wrong type, shape or layout", name);
    return -1;
}

/* One walk in flight: its stream key, sample row, current dart and steps taken. */
typedef struct {
    uint64_t key;
    Py_ssize_t row;
    int64_t e, t;
} Lane;

/* Number of walks one thread advances in lockstep, so that the table loads
 * of one walk overlap those of the others. */
#define LANES 4

static PyObject *sample_counts(PyObject *self, PyObject *args)
{
    static const char *name[5] = {"out_flat", "dart_table", "value_index", "out_counts", "out_end"};
    static const Py_ssize_t itemsize[5] = {8, 8, 4, 8, 4};
    static const int ndim[5] = {1, 2, 1, 2, 1}, writable[5] = {0, 0, 0, 1, 1};
    unsigned long long seed;
    long long first_sample, length;
    PyObject *obj[5], *result = NULL;
    Py_buffer view[5];
    int held;
    if (!PyArg_ParseTuple(args, "KLLOOOOO:sample_counts", &seed, &first_sample, &length, &obj[0], &obj[1],
                          &obj[2], &obj[3], &obj[4]))
        return NULL;
    for (held = 0; held < 5; held++) {
        /* dart_table has five rows, value_index one per dart and out_end one per sample */
        Py_ssize_t rows = held == 1 ? 5 : held == 2 ? view[0].shape[0] : held == 4 ? view[3].shape[0] : -1;
        if (get_array(obj[held], &view[held], name[held], itemsize[held], ndim[held], rows, writable[held]) < 0)
            goto release;
    }
    const int64_t *out_flat = view[0].buf, *first = view[1].buf;
    const int32_t *value_index = view[2].buf;
    int64_t *out_counts = view[3].buf;
    int32_t *out_end = view[4].buf;
    Py_ssize_t n_darts = view[0].shape[0], n_samples = view[3].shape[0], n_values = view[3].shape[1];
    if (view[1].shape[1] != n_darts || (n_darts == 0 && n_samples > 0)) {
        PyErr_SetString(PyExc_ValueError, "dart_table needs one column per dart, and a walk a dart");
        goto release;
    }
    const int64_t *skip = first + n_darts, *outdeg = skip + n_darts;
    const int64_t *anchor = outdeg + n_darts, *dist = anchor + n_darts;
    /* every index a walk can form stays inside its array, and exactly the
     * branching darts are counted */
    for (Py_ssize_t e = 0; e < n_darts; e++) {
        if (out_flat[e] < 0 || out_flat[e] >= n_darts || first[e] < 0 || outdeg[e] < 1
            || outdeg[e] >= n_darts - first[e] || skip[e] < first[e] || skip[e] - first[e] > outdeg[e]
            || value_index[e] >= n_values || (value_index[e] >= 0) != (outdeg[e] > 1)) {
            PyErr_Format(PyExc_ValueError, "walk tables are inconsistent at dart %zd", e);
            goto release;
        }
    }
    /* a jump lands where the steps would: dist counts down along the one
     * successor to 0 at a branching dart, its own anchor, which every dart on
     * the way has as anchor */
    for (Py_ssize_t e = 0; e < n_darts; e++) {
        int64_t f = out_flat[first[e] + (first[e] >= skip[e])]; /* the one successor where outdeg is 1 */
        if (anchor[e] < 0 || anchor[e] >= n_darts || dist[e] < 0 || (dist[e] == 0) != (outdeg[e] > 1)
            || (dist[e] == 0 ? anchor[e] != e : anchor[f] != anchor[e] || dist[f] != dist[e] - 1)) {
            PyErr_Format(PyExc_ValueError, "walk tables are inconsistent at dart %zd", e);
            goto release;
        }
    }

    Py_BEGIN_ALLOW_THREADS
    uint64_t run = mix64(seed * GOLDEN + 0xD1B54A32D192ED03ULL);
    Lane lane[LANES];
    Py_ssize_t next = 0;
    int live = 0;
    for (int l = 0; l < LANES; l++)
        lane[l].row = -1;
    for (;;) {
        /* a free lane takes the next sample: step 0 draws its initial dart */
        for (int l = 0; l < LANES; l++) {
            Lane *w = &lane[l];
            if (w->row < 0 && next < n_samples) {
                w->row = next++;
                w->key = mix64(run + ((uint64_t)first_sample + (uint64_t)w->row + 1) * GOLDEN);
                w->e = (int64_t)(mix64(w->key + GOLDEN) % (uint64_t)n_darts);
                w->t = 0;
                live++;
            }
        }
        if (live == 0)
            break;
        for (int l = 0; l < LANES; l++) {
            Lane *w = &lane[l];
            if (w->row < 0)
                continue;
            int64_t e = w->e, t = w->t, d = dist[e];
            if (d <= length - t) { /* a no-op where d == 0 */
                e = anchor[e];
                t += d;
            } else { /* the walk ends inside this path */
                for (; t < length; t++) {
                    int64_t k = first[e];
                    e = out_flat[k + (k >= skip[e])];
                }
            }
            if (t < length) { /* e branches: count it and draw number t + 1 picks the successor */
                out_counts[w->row * n_values + value_index[e]] += 1;
                int64_t k = first[e] + (int64_t)(mix64(w->key + ((uint64_t)t + 2) * GOLDEN) % (uint64_t)outdeg[e]);
                e = out_flat[k + (k >= skip[e])]; /* the j-th successor: step over reverse(e) */
                t++;
            }
            if (t >= length) {
                out_end[w->row] = (int32_t)e;
                w->row = -1;
                live--;
            }
            w->e = e;
            w->t = t;
        }
    }
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
release:
    while (held-- > 0)
        PyBuffer_Release(&view[held]);
    return result;
}

static int64_t root_of(int64_t *parent, int64_t v)
{
    while (parent[v] != v)
        v = parent[v] = parent[parent[v]]; /* path halving */
    return v;
}

/* The tables sample_counts reads, from each dart's tail: the paired darts
 * first, 2i and 2i + 1 the reverse of each other, then the half-loop darts,
 * each its own reverse (nbrw._text.number_darts).  nbrw._kernels.fallback
 * has the numpy twin.  The verdict of nbrw.graph.is_nb_irreducible comes
 * first, with the same checks in the same order, and the tables follow for
 * every graph; a dart on a cycle component gets anchor = dist = -1.  The
 * callers refuse a header with too few edges to connect its vertices first. */
static PyObject *walk_tables(PyObject *self, PyObject *args)
{
    Py_ssize_t n_vertices, paired;
    PyObject *tails_obj, *result = NULL, *out[4] = {NULL, NULL, NULL, NULL};
    Py_buffer view;
    int64_t *offsets = NULL;
    if (!PyArg_ParseTuple(args, "nnO:walk_tables", &n_vertices, &paired, &tails_obj)
        || get_array(tails_obj, &view, "tails", 8, 1, -1, 0) < 0)
        return NULL;
    const int64_t *tail = view.buf;
    Py_ssize_t n_darts = view.shape[0], e;
    int valid = n_vertices >= 0 && paired >= 0 && paired <= n_darts && paired % 2 == 0;
    for (e = 0; valid && e < n_darts; e++)
        valid = tail[e] >= 0 && tail[e] < n_vertices;
    if (!valid) {
        PyErr_SetString(PyExc_ValueError, "tails must be vertices, with an even number of paired darts first");
        goto done;
    }
    /* per vertex its offset in out_flat (its degree at first, one place
     * on) and its parent in a union-find, then its next free place in
     * out_flat; per dart a scratch entry, and per degree its tracked index */
    if (!(offsets = PyMem_Calloc(2 * n_vertices + 1 + 2 * n_darts, sizeof *offsets))) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t *parent = offsets + n_vertices + 1, *scratch = parent + n_vertices, *index_of = scratch + n_darts;
    Py_ssize_t components = n_vertices;
    for (Py_ssize_t v = 0; v < n_vertices; v++)
        parent[v] = v;
    for (e = 0; e < paired; e += 2) {
        int64_t a = root_of(parent, tail[e]), b = root_of(parent, tail[e + 1]);
        components -= a != b;
        parent[a] = b;
    }
    for (e = 0; e < n_darts; e++)
        offsets[tail[e] + 1]++;
    int64_t min_degree = n_darts, max_degree = 0;
    for (Py_ssize_t v = 1; v <= n_vertices; v++) {
        min_degree = offsets[v] < min_degree ? offsets[v] : min_degree;
        max_degree = offsets[v] > max_degree ? offsets[v] : max_degree;
    }
    const char *verdict = components != 1 ? "not_connected" : min_degree < 2 ? "min_degree_below_2"
                          : max_degree <= 2 ? "is_cycle" : "ok";

    /* the darts grouped by tail, ascending in each group, by a counting sort,
     * with each dart's place in scratch; then the tracked degrees, the
     * distinct outdeg > 1, ascending */
    Py_ssize_t size[3] = {8 * n_darts, 40 * n_darts, 4 * n_darts}, tracked = 0;
    for (int i = 0; i < 3; i++)
        if (!(out[i] = PyBytes_FromStringAndSize(NULL, size[i])))
            goto done;
    int64_t *flat = (int64_t *)PyBytes_AS_STRING(out[0]), *first = (int64_t *)PyBytes_AS_STRING(out[1]);
    int64_t *skip = first + n_darts, *outdeg = skip + n_darts, *anchor = outdeg + n_darts, *dist = anchor + n_darts;
    int32_t *value_index = (int32_t *)PyBytes_AS_STRING(out[2]);
    for (Py_ssize_t v = 0; v < n_vertices; v++) {
        offsets[v + 1] += offsets[v];
        parent[v] = offsets[v];
    }
    for (e = 0; e < n_darts; e++) {
        flat[parent[tail[e]]] = e;
        scratch[e] = parent[tail[e]]++;
    }
    for (Py_ssize_t v = 0; v < n_vertices; v++)
        if (offsets[v + 1] > offsets[v]) /* a vertex of degree 0 is no dart's head */
            index_of[offsets[v + 1] - offsets[v] - 1] = 1;
    for (int64_t d = 2; d < max_degree; d++)
        index_of[d] = index_of[d] ? tracked++ : -1;
    for (e = 0; e < n_darts; e++) {
        Py_ssize_t reverse = e < paired ? e ^ 1 : e;
        int64_t head = tail[reverse];
        first[e] = offsets[head];
        skip[e] = scratch[reverse];
        outdeg[e] = offsets[head + 1] - offsets[head] - 1;
        value_index[e] = outdeg[e] > 1 ? (int32_t)index_of[outdeg[e]] : -1;
        dist[e] = -2;
    }
    /* anchor and dist: follow the one successor to the first dart with outdeg
     * other than 1, stacking the darts on the way in scratch (marked -3), then
     * fill them in backwards; a walk back to a stacked dart went round a cycle
     * component.  dist is -2 on a dart not reached yet */
    for (e = 0; e < n_darts; e++) {
        Py_ssize_t top = 0;
        int64_t f = e;
        while (dist[f] == -2 && outdeg[f] == 1) {
            dist[f] = -3;
            scratch[top++] = f;
            f = flat[first[f] + (first[f] >= skip[f])];
        }
        if (dist[f] == -2) {
            anchor[f] = f;
            dist[f] = 0;
        }
        int cycle = dist[f] == -3;
        while (top > 0) {
            int64_t g = scratch[--top];
            anchor[g] = cycle ? -1 : anchor[f];
            dist[g] = cycle ? -1 : dist[f] + 1;
            f = g;
        }
    }
    if (!(out[3] = PyBytes_FromStringAndSize(NULL, 8 * tracked)))
        goto done;
    for (int64_t d = 2; d < max_degree; d++)
        if (index_of[d] >= 0)
            ((int64_t *)PyBytes_AS_STRING(out[3]))[index_of[d]] = d;
    result = Py_BuildValue("(sOOOO)", verdict, out[0], out[1], out[2], out[3]);
done:
    PyMem_Free(offsets);
    for (int i = 0; i < 4; i++)
        Py_XDECREF(out[i]);
    PyBuffer_Release(&view);
    return result;
}

static PyMethodDef methods[] = {
    {"sample_counts", sample_counts, METH_VARARGS,
     "sample_counts(seed, first_sample, length, out_flat, dart_table, value_index, out_counts, out_end)\n"
     "Walk out_counts.shape[0] samples, accumulating per-value branch counts\n"
     "and recording the final dart of each walk."},
    {"walk_tables", walk_tables, METH_VARARGS,
     "walk_tables(vertex_count, paired_darts, tails)\n"
     "(verdict, out_flat, dart_table, value_index, degrees), the four tables\n"
     "as the bytes of flat arrays."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_walk", NULL, -1, methods};

PyMODINIT_FUNC PyInit__walk(void)
{
    return PyModule_Create(&module);
}
