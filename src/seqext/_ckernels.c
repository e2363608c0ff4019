/*
 * Compiled search kernels: an exact mirror of `_kernels_py`.
 *
 * Same candidate order, same pruning, same node accounting, so both twins
 * return identical (best, witness, nodes, truncated) tuples; `_kernels_py`
 * documents the algorithm. Both searches, `seq_run` and `matrix_run`, are
 * the explicit-stack loop of `_kernels_py._dfs` specialised to one state, so
 * their depth (up to the 50,000 ceiling or cell limit) never touches the C
 * stack. Both also copy a new best the way `_dfs` does: only when the search
 * first backs out of it or stops on it, so a straight path of any depth
 * costs one copy. Build in place with `python setup.py build_ext --inplace`.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

typedef unsigned long long u64;

enum { MODE_DS = 0, MODE_FORMATION = 1, MODE_PATTERN = 2 };

#define MAX_LETTERS 60
#define MAX_CEILING 50000
#define MAX_COLUMNS 62
#define MAX_CELLS 50000
/* Searches poll for Ctrl-C once every 2^20 nodes. */
#define SIGNAL_MASK ((1LL << 20) - 1)

static void *zalloc(size_t count, size_t size)
{
    void *p = PyMem_Calloc(count ? count : 1, size);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

/* Grow buf to hold at least `need` items of `size` bytes; callers test the
   capacity first. NULL (MemoryError) on failure, with buf left intact. */
static void *grow(void *buf, size_t *cap, size_t need, size_t size)
{
    size_t cap2 = *cap ? *cap : 64;
    while (cap2 < need)
        cap2 *= 2;
    buf = cap2 > PY_SSIZE_T_MAX / size ? NULL : PyMem_Realloc(buf, cap2 * size);
    if (buf == NULL)
        return PyErr_NoMemory();
    *cap = cap2;
    return buf;
}

static int count_node(long long *nodes)
{
    if ((++*nodes & SIGNAL_MASK) == 0 && PyErr_CheckSignals() < 0)
        return -1;
    return 0;
}

static int value_error(const char *msg)
{
    PyErr_SetString(PyExc_ValueError, msg);
    return -1;
}

/* Arguments too large for a C int lie outside every kernel limit. */
static PyObject *parse_failed(void)
{
    if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "argument out of range");
    }
    return NULL;
}

/* ------------------------------------------------------------------------ */
/* Sequence search                                                          */

typedef struct {
    int idx;       /* letter-pair slot (DS), r-subset (formation) or embedding (pattern) */
    int completed; /* formation: this push completed the subset;
                      pattern: this push appended the embedding */
    u64 old;       /* previous alt_last (DS), partial mask (formation) or k (pattern) */
} Change;

typedef struct {
    int last_pos, used_max, blocks_used;
    u64 block_mask;
    size_t mark; /* height of the change log before the push */
} Undo;

/* Pattern mode: one partial embedding per mapping, as in `SeqState.reach`. */
typedef struct {
    u64 code; /* sum_a image(a) * (n+1)^(a-1), 0 for an unmapped letter */
    u64 used; /* bit x set iff letter x is the image of a pattern letter */
    int k;    /* greatest pattern prefix embedded under this mapping */
    int want; /* image of pattern[k], 0 if that letter is unmapped */
} Embedding;

typedef struct {
    int mode, n, jeff, s, max_blocks, ceiling;
    long long node_budget, nodes;
    long long slack; /* DS: runs the letter pairs can still take; see `SeqState` */
    int length, used_max, blocks_used, best, best_len, truncated, done;
    u64 block_mask;
    int *tokens, *best_tokens, *last_pos;
    int *next; /* next[d]: next letter to try after a prefix of length d */
    Undo *undo;
    Change *log;
    size_t log_top, log_cap;
    /* DS: alternation count and last letter per letter pair */
    int *alt, *alt_last;
    /* formation: per r-subset its letter mask, greedy progress and completed
       copies; per letter the subsets containing it */
    u64 *sub_full, *sub_partial;
    int *sub_count, *letter_sub_data;
    size_t *letter_sub_start;
    /* pattern: the embeddings in the order they were added, an
       open-addressing index on their mapping codes (slot: embedding + 1,
       0 empty; linear probing) and a scratch list of one push's moves.
       Embeddings leave only from the end, so an index slot can simply be
       cleared: every code that probed past it was added later and has
       already left. */
    int plen;
    int *pattern;
    u64 *digit_pow;
    int ru;
    Embedding *emb, *fresh;
    size_t emb_top, emb_cap, fresh_cap;
    size_t *slots, slot_mask;
} SeqKernel;

static void seq_free(SeqKernel *k)
{
    void *bufs[] = {k->tokens, k->best_tokens, k->last_pos, k->next, k->undo,
                    k->log, k->alt, k->alt_last, k->sub_full, k->sub_partial,
                    k->sub_count, k->letter_sub_data, k->letter_sub_start,
                    k->pattern, k->digit_pow, k->emb, k->fresh, k->slots};
    for (size_t i = 0; i < sizeof bufs / sizeof bufs[0]; i++)
        PyMem_Free(bufs[i]);
}

static int formation_init(SeqKernel *k, int r)
{
    int n = k->n, comb[MAX_LETTERS];
    u64 nsubs = 0;
    size_t pos = 0;
    if (r < 0)
        return value_error("r must be non-negative");
    if (r >= 1 && r <= n) {
        nsubs = 1;
        for (int i = 0; i < r; i++)
            nsubs = nsubs * (u64)(n - i) / (u64)(i + 1);
        if (nsubs > INT_MAX) {
            PyErr_NoMemory();
            return -1;
        }
    }
    if (!(k->sub_full = zalloc(nsubs, sizeof(u64)))
        || !(k->sub_partial = zalloc(nsubs, sizeof(u64)))
        || !(k->sub_count = zalloc(nsubs, sizeof(int)))
        || !(k->letter_sub_start = zalloc(n + 2, sizeof(size_t)))
        || !(k->letter_sub_data = zalloc(nsubs * r, sizeof(int))))
        return -1;
    /* r-subsets in lexicographic order, as itertools.combinations yields them */
    for (int i = 0; nsubs && i < r; i++)
        comb[i] = i + 1;
    for (u64 si = 0; si < nsubs; si++) {
        int i = r - 1;
        for (int u = 0; u < r; u++)
            k->sub_full[si] |= (u64)1 << comb[u];
        while (i >= 0 && comb[i] == n - r + 1 + i)
            i--;
        if (i >= 0)
            for (comb[i]++, i++; i < r; i++)
                comb[i] = comb[i - 1] + 1;
    }
    for (int v = 0; v <= n; v++) {
        k->letter_sub_start[v] = pos;
        for (u64 si = 0; si < nsubs; si++)
            if ((k->sub_full[si] >> v) & 1)
                k->letter_sub_data[pos++] = (int)si;
    }
    k->letter_sub_start[n + 1] = pos;
    return 0;
}

/* The image of pattern[kk] under the mapping `code`, 0 if unmapped. */
static int image_of(const SeqKernel *k, u64 code, int kk)
{
    return (int)(code / k->digit_pow[kk] % ((u64)k->n + 1));
}

/* The index slot holding `code`, or the empty slot where it would go. */
static size_t slot_of(const SeqKernel *k, u64 code)
{
    size_t i = (size_t)((code * 0x9E3779B97F4A7C15ULL) >> 32) & k->slot_mask;
    while (k->slots[i] && k->emb[k->slots[i] - 1].code != code)
        i = (i + 1) & k->slot_mask;
    return i;
}

/* Append an embedding; the index stays at most half full, and a larger one
   is refilled in embedding order, which keeps clearing slots safe. */
static int emb_append(SeqKernel *k, Embedding e)
{
    size_t top = k->emb_top;
    if (top == k->emb_cap) {
        Embedding *emb = grow(k->emb, &k->emb_cap, top + 1, sizeof *emb);
        size_t *slots;
        if (emb == NULL)
            return -1;
        k->emb = emb;
        if (!(slots = zalloc(2 * k->emb_cap, sizeof *slots)))
            return -1;
        PyMem_Free(k->slots);
        k->slots = slots;
        k->slot_mask = 2 * k->emb_cap - 1;
        for (size_t i = 0; i < top; i++)
            slots[slot_of(k, emb[i].code)] = i + 1;
    }
    k->emb[top] = e;
    k->slots[slot_of(k, e.code)] = top + 1;
    k->emb_top = top + 1;
    return 0;
}

static int pattern_init(SeqKernel *k, PyObject *pattern)
{
    const u64 limit = (u64)1 << 63, base = (u64)k->n + 1;
    u64 ppow = 1;
    PyObject *seq = PySequence_Fast(pattern, "pattern must be a sequence");
    Py_ssize_t plen;
    if (seq == NULL)
        return -1;
    plen = PySequence_Fast_GET_SIZE(seq);
    if (plen == 0 || plen >= INT_MAX) {
        Py_DECREF(seq);
        return value_error(plen ? "pattern too long" : "pattern must be nonempty");
    }
    if (!(k->pattern = zalloc(plen, sizeof(int))) || !(k->digit_pow = zalloc(plen, sizeof(u64)))) {
        Py_DECREF(seq);
        return -1;
    }
    k->plen = (int)plen;
    for (Py_ssize_t i = 0; i < plen; i++) {
        int overflow;
        long a = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq, i), &overflow);
        if (a == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (overflow || a < 1 || a > 64) {
            Py_DECREF(seq);
            /* a letter above 64 fails the 63-bit encoding bound below anyway */
            return value_error(overflow < 0 || a < 1 ? "pattern letters must be positive"
                               : "pattern alphabet too large for the state encoding");
        }
        k->pattern[i] = (int)a;
        if (a > k->ru)
            k->ru = (int)a;
    }
    Py_DECREF(seq);
    /* the documented limit (n+1)^ru * (plen+1) < 2^63 keeps every mapping
       code in range */
    for (int i = 0; i < k->ru; i++) {
        if (ppow > (limit - 1) / base)
            return value_error("pattern alphabet too large for the state encoding");
        ppow *= base;
    }
    if (ppow > (limit - 1) / ((u64)plen + 1))
        return value_error("pattern alphabet too large for the state encoding");
    for (int i = 0; i < k->plen; i++) {
        k->digit_pow[i] = 1;
        for (int b = 1; b < k->pattern[i]; b++)
            k->digit_pow[i] *= base;
    }
    if (!(k->emb = grow(NULL, &k->emb_cap, 1, sizeof *k->emb))
        || !(k->fresh = grow(NULL, &k->fresh_cap, 1, sizeof *k->fresh))
        || !(k->slots = zalloc(2 * k->emb_cap, sizeof *k->slots)))
        return -1;
    k->slot_mask = 2 * k->emb_cap - 1;
    k->emb[0] = (Embedding){0, 0, 0, 0}; /* nothing embedded yet, empty mapping */
    k->emb_top = 1;
    k->slots[slot_of(k, 0)] = 1;
    return 0;
}

static int seq_init(SeqKernel *k, int mode, int n, int j, int ceiling, int s,
                    int r, PyObject *pattern, int max_blocks, long long node_budget)
{
    size_t depth = (size_t)ceiling + 1;
    memset(k, 0, sizeof *k);
    if (n < 1 || n > MAX_LETTERS)
        return value_error("letter count must be in 1..60");
    if (ceiling < 0 || ceiling > MAX_CEILING)
        return value_error("ceiling must be in 0..50000");
    if (max_blocks && mode != MODE_DS)
        return value_error("block budgets only apply to DS searches");
    k->mode = mode;
    k->n = n;
    k->jeff = mode == MODE_DS && j < 2 ? 2 : j;
    k->s = s;
    k->max_blocks = max_blocks;
    k->ceiling = ceiling;
    k->node_budget = node_budget;
    if (!(k->tokens = zalloc(depth, sizeof(int)))
        || !(k->best_tokens = zalloc(depth, sizeof(int)))
        || !(k->next = zalloc(depth, sizeof(int)))
        || !(k->undo = zalloc(depth, sizeof(Undo)))
        || !(k->last_pos = zalloc(n + 1, sizeof(int))))
        return -1;
    k->slack = MAX_CEILING;
    switch (mode) {
    case MODE_DS:
        k->slack = ((long long)s + 1) * (n * (n - 1) / 2);
        if (!(k->alt = zalloc((n + 1) * (n + 1), sizeof(int)))
            || !(k->alt_last = zalloc((n + 1) * (n + 1), sizeof(int))))
            return -1;
        return 0;
    case MODE_FORMATION:
        return formation_init(k, r);
    case MODE_PATTERN:
        return pattern_init(k, pattern);
    default:
        PyErr_Format(PyExc_ValueError, "unknown mode %d", mode);
        return -1;
    }
}

/* The change log with room for `need` entries; NULL (MemoryError) on failure. */
static Change *log_reserve(SeqKernel *k, size_t need)
{
    Change *log = k->log;
    if (need > k->log_cap || log == NULL) {
        if (!(log = grow(log, &k->log_cap, need, sizeof *log)))
            return NULL;
        k->log = log;
    }
    return log;
}

/* Each *_push appends c to the mode's state if the sequence stays
   admissible: 1 if pushed, 0 if rejected (state untouched), -1 on error. */

static int ds_push(SeqKernel *k, int c)
{
    const int n = k->n;
    int *alt = k->alt, *alt_last = k->alt_last;
    size_t top = k->log_top;
    Change *log = log_reserve(k, top + n);
    if (log == NULL)
        return -1;
    for (int b = 1; b <= n; b++) {
        int idx = c < b ? c * (n + 1) + b : b * (n + 1) + c;
        if (b == c || alt_last[idx] == c)
            continue;
        if (alt[idx] > k->s)
            return 0;
        log[top++] = (Change){idx, 0, (u64)alt_last[idx]};
    }
    for (size_t i = k->log_top; i < top; i++) {
        alt[log[i].idx]++;
        alt_last[log[i].idx] = c;
    }
    k->slack -= (long long)(top - k->log_top);
    k->log_top = top;
    return 1;
}

static int formation_push(SeqKernel *k, int c)
{
    const u64 bit = (u64)1 << c;
    size_t top = k->log_top, lo = k->letter_sub_start[c], hi = k->letter_sub_start[c + 1];
    Change *log = log_reserve(k, top + (hi - lo));
    if (log == NULL)
        return -1;
    for (size_t i = lo; i < hi; i++) {
        int si = k->letter_sub_data[i];
        u64 pm = k->sub_partial[si];
        int completed = (pm | bit) == k->sub_full[si];
        if (pm & bit)
            continue;
        if (completed && k->sub_count[si] + 1 >= k->s)
            return 0;
        log[top++] = (Change){si, completed, pm};
    }
    for (size_t i = k->log_top; i < top; i++) {
        if (log[i].completed) {
            k->sub_count[log[i].idx]++;
            k->sub_partial[log[i].idx] = 0;
        } else {
            k->sub_partial[log[i].idx] = log[i].old | bit;
        }
    }
    k->log_top = top;
    return 1;
}

/* Raises the embedding of each mapping that c extends, and adds the
   mappings that first send a pattern letter to c; 0 if an embedding would
   complete the pattern. */
static int pattern_push(SeqKernel *k, int c)
{
    const u64 bit = (u64)1 << c;
    const size_t count = k->emb_top;
    size_t moves = 0, top = k->log_top;
    Embedding *fresh = k->fresh;
    Change *log;
    if (count > k->fresh_cap) {
        if (!(fresh = grow(fresh, &k->fresh_cap, count, sizeof *fresh)))
            return -1;
        k->fresh = fresh;
    }
    for (size_t i = 0; i < count; i++) {
        Embedding e = k->emb[i];
        if (e.want == 0 && !(e.used & bit)) {
            e.code += (u64)c * k->digit_pow[e.k];
            e.used |= bit;
        } else if (e.want != c) {
            continue;
        }
        if (++e.k == k->plen) /* the whole pattern embeds */
            return 0;
        e.want = image_of(k, e.code, e.k);
        fresh[moves++] = e;
    }
    if (!(log = log_reserve(k, top + moves)))
        return -1;
    for (size_t i = 0; i < moves; i++) {
        size_t at = k->slots[slot_of(k, fresh[i].code)];
        if (at == 0) {
            log[top++] = (Change){(int)k->emb_top, 1, 0};
            if (emb_append(k, fresh[i]) < 0)
                return -1;
        } else if (k->emb[at - 1].k < fresh[i].k) {
            Embedding *e = &k->emb[at - 1];
            log[top++] = (Change){(int)(at - 1), 0, (u64)e->k};
            e->k = fresh[i].k;
            e->want = fresh[i].want;
        }
    }
    k->log_top = top;
    return 1;
}

/* Append letter c if the sequence stays admissible; mirrors `SeqState.try_push`. */
static int seq_push(SeqKernel *k, int c)
{
    int d = k->length, lp = k->last_pos[c], pushed;
    int new_block = k->max_blocks && (k->block_mask == 0 || (k->block_mask >> c) & 1);
    size_t mark = k->log_top;
    if (lp && d + 1 - lp < k->jeff)
        return 0;
    if (k->mode == MODE_DS)
        pushed = new_block && k->blocks_used + 1 > k->max_blocks ? 0 : ds_push(k, c);
    else if (k->mode == MODE_FORMATION)
        pushed = formation_push(k, c);
    else
        pushed = pattern_push(k, c);
    if (pushed <= 0)
        return pushed;
    k->undo[d] = (Undo){lp, k->used_max, k->blocks_used, k->block_mask, mark};
    if (new_block) {
        k->blocks_used++;
        k->block_mask = (u64)1 << c;
    } else if (k->max_blocks) {
        k->block_mask |= (u64)1 << c;
    }
    k->last_pos[c] = d + 1;
    if (c > k->used_max)
        k->used_max = c;
    k->tokens[d] = c;
    k->length = d + 1;
    return 1;
}

static void seq_pop(SeqKernel *k)
{
    int d = --k->length, c = k->tokens[d];
    const Undo *u = &k->undo[d];
    k->last_pos[c] = u->last_pos;
    k->used_max = u->used_max;
    k->blocks_used = u->blocks_used;
    k->block_mask = u->block_mask;
    if (k->mode == MODE_DS)
        k->slack += (long long)(k->log_top - u->mark);
    /* newest first: a pattern push may raise one embedding twice */
    for (size_t i = k->log_top; i-- > u->mark;) {
        const Change *ch = &k->log[i];
        if (k->mode == MODE_DS) {
            k->alt[ch->idx]--;
            k->alt_last[ch->idx] = (int)ch->old;
        } else if (k->mode == MODE_FORMATION) {
            if (ch->completed)
                k->sub_count[ch->idx]--;
            k->sub_partial[ch->idx] = ch->old;
        } else if (ch->completed) { /* the newest embedding leaves */
            k->slots[slot_of(k, k->emb[--k->emb_top].code)] = 0;
        } else {
            Embedding *e = &k->emb[ch->idx];
            e->k = (int)ch->old;
            e->want = image_of(k, e->code, e->k);
        }
    }
    k->log_top = u->mark;
}

/* Copy the current prefix, a best not yet copied, into the witness. */
static void seq_keep(SeqKernel *k)
{
    memcpy(k->best_tokens, k->tokens, (size_t)k->length * sizeof(int));
    k->best_len = k->length;
}

/* Depth-first search below the current prefix; mirrors `_kernels_py._dfs`
   on a `SeqState`, with its alternation budget: below a pushed token it
   descends only while length + slack > best. Every push after a new best
   makes another new best, so a pending best is the current prefix until the
   next pop. */
static int seq_run(SeqKernel *k)
{
    int root = k->length, pending = 0;
    if (k->done || root >= k->ceiling)
        return 0;
    k->next[root] = 1;
    for (;;) {
        int d = k->length, c = k->next[d], pushed;
        int cmax = k->used_max + 1 < k->n ? k->used_max + 1 : k->n;
        if (c > cmax) {
            if (d == root)
                break;
            if (pending)
                seq_keep(k), pending = 0;
            seq_pop(k);
            continue;
        }
        if (k->node_budget && k->nodes >= k->node_budget) {
            k->truncated = 1;
            break;
        }
        k->next[d] = c + 1;
        pushed = seq_push(k, c);
        if (pushed <= 0) {
            if (pushed < 0)
                return -1;
            continue;
        }
        if (count_node(&k->nodes) < 0)
            return -1;
        if (d + 1 > k->best) {
            k->best = d + 1;
            pending = 1;
            if (k->best >= k->ceiling) {
                k->done = 1;
                break;
            }
        }
        if (d + 1 < k->ceiling && d + 1 + k->slack > k->best) {
            k->next[d + 1] = 1;
        } else {
            if (pending)
                seq_keep(k), pending = 0;
            seq_pop(k);
        }
    }
    if (pending)
        seq_keep(k);
    return 0;
}

static PyObject *int_list(const int *items, int count)
{
    PyObject *list = PyList_New(count);
    for (int i = 0; list && i < count; i++) {
        PyObject *item = PyLong_FromLong(items[i]);
        if (item == NULL) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

PyDoc_STRVAR(seq_search_doc,
"seq_search(mode, n, j, ceiling, s=0, r=0, pattern=(), max_blocks=0,\n"
"           node_budget=0, prefix=(), initial_best=-1)\n"
"--\n\n"
"Depth-first maximum-length search over canonical admissible sequences.\n\n"
"Mirrors `_kernels_py.seq_search`; returns (best, witness_tokens, nodes,\n"
"truncated).");

static PyObject *py_seq_search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"mode", "n", "j", "ceiling", "s", "r", "pattern", "max_blocks",
                             "node_budget", "prefix", "initial_best", NULL};
    int mode, n, j, ceiling, s = 0, r = 0, max_blocks = 0, initial_best = -1, bad;
    long long node_budget = 0;
    PyObject *pattern = NULL, *prefix = NULL, *seq = NULL, *result = NULL;
    Py_ssize_t plen = 0;
    SeqKernel k;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiii|iiOiLOi", kwlist, &mode, &n, &j,
                                     &ceiling, &s, &r, &pattern, &max_blocks, &node_budget,
                                     &prefix, &initial_best))
        return parse_failed();
    if (seq_init(&k, mode, n, j, ceiling, s, r, pattern ? pattern : Py_None, max_blocks,
                 node_budget) < 0)
        goto done;
    if (prefix) {
        if (!(seq = PySequence_Fast(prefix, "prefix must be a sequence")))
            goto done;
        plen = PySequence_Fast_GET_SIZE(seq);
        bad = plen > ceiling;
        for (Py_ssize_t i = 0; i < plen && !bad; i++) {
            int overflow;
            long tok = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq, i), &overflow);
            if (tok == -1 && PyErr_Occurred())
                goto done;
            bad = overflow || tok < 1 || tok > n;
        }
        if (bad) {
            value_error("forced prefix must fit the ceiling and letter range");
            goto done;
        }
        for (Py_ssize_t i = 0; i < plen; i++) {
            int pushed = seq_push(&k, (int)PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i)));
            if (pushed < 0)
                goto done;
            if (pushed == 0) {
                PyErr_Format(PyExc_ValueError, "forced prefix %R is not admissible", prefix);
                goto done;
            }
        }
    }
    k.best = initial_best > plen ? initial_best : (int)plen;
    k.best_len = (int)plen;
    memcpy(k.best_tokens, k.tokens, (size_t)plen * sizeof(int));
    k.done = k.best >= ceiling;
    if (seq_run(&k) < 0)
        goto done;
    result = Py_BuildValue("(iNLO)", k.best, int_list(k.best_tokens, k.best_len), k.nodes,
                           k.truncated ? Py_True : Py_False);
done:
    Py_XDECREF(seq);
    seq_free(&k);
    return result;
}

/* ------------------------------------------------------------------------ */
/* Matrix search                                                            */

typedef struct {
    int n, m, pn, pm, total, best, truncated, done;
    int equal_rows; /* every pattern row is equal: the row-order rule applies */
    long long node_budget, nodes;
    u64 *rows, *best_rows, *p_rows;
    int *sel;
    unsigned char *branch; /* per cell: 0 untried, 1 in its 1-branch, 2 in its 0-branch */
} MatrixKernel;

static void matrix_free(MatrixKernel *k)
{
    PyMem_Free(k->rows);
    PyMem_Free(k->best_rows);
    PyMem_Free(k->p_rows);
    PyMem_Free(k->sel);
    PyMem_Free(k->branch);
}

static int matrix_init(MatrixKernel *k, int n, int m, PyObject *p_rows, int pn, int pm,
                       long long node_budget)
{
    PyObject *seq;
    memset(k, 0, sizeof *k);
    if (n < 1 || m < 1 || m > MAX_COLUMNS)
        return value_error("need 1 <= n and 1 <= m <= 62");
    if ((long long)n * m > MAX_CELLS)
        return value_error("cell count exceeds the 50000 search limit");
    if (pn < 0 || pm < 0)
        return value_error("pattern dimensions must be non-negative");
    k->n = n;
    k->m = m;
    k->pn = pn;
    k->pm = pm;
    k->total = n * m;
    k->node_budget = node_budget;
    if (!(k->rows = zalloc(n, sizeof(u64))) || !(k->best_rows = zalloc(n, sizeof(u64)))
        || !(k->p_rows = zalloc(pn, sizeof(u64))) || !(k->sel = zalloc(pn, sizeof(int)))
        || !(k->branch = zalloc((size_t)k->total + 1, 1)))
        return -1;
    if (!(seq = PySequence_Fast(p_rows, "p_rows must be a sequence")))
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != pn) {
        Py_DECREF(seq);
        return value_error("p_rows must hold pn row masks");
    }
    /* Only the low 64 bits of a pattern row are read: m <= 62, and `contains`
       returns early when pm > m. Equal rows are decided on the whole ints,
       so the row-order rule fires exactly when the pure twin's does. */
    k->equal_rows = 1;
    for (int u = 0; u < pn; u++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, u);
        int same = u ? PyObject_RichCompareBool(item, PySequence_Fast_GET_ITEM(seq, 0), Py_EQ) : 1;
        if (same < 0 || ((k->p_rows[u] = PyLong_AsUnsignedLongLongMask(item)) == (u64)-1
                         && PyErr_Occurred())) {
            Py_DECREF(seq);
            return -1;
        }
        k->equal_rows &= same;
    }
    Py_DECREF(seq);
    return 0;
}

/* The row-order rule of `MatrixState`: with equal pattern rows, a 1 at
   (row, col) is refused if the row above has a 0 there and equals this row
   on the columns before col (the cells from col on are still 0). */
static int breaks_row_order(const MatrixKernel *k, int row, int col)
{
    u64 above;
    if (!k->equal_rows || row == 0)
        return 0;
    above = k->rows[row - 1];
    return !((above >> col) & 1) && k->rows[row] == (above & (((u64)1 << col) - 1));
}

/* Greedy left-to-right column matching for the row selection in sel. */
static int cols_embed(const u64 *rows, const int *sel, const u64 *p_rows, int pn, int pm, int m)
{
    int j = 0;
    for (int v = 0; v < pm; v++, j++) {
        for (; j < m; j++) {
            int u = 0;
            while (u < pn && !((p_rows[u] >> v) & 1 && !((rows[sel[u]] >> j) & 1)))
                u++;
            if (u == pn)
                break;
        }
        if (j == m)
            return 0;
    }
    return 1;
}

/* Pattern containment: every row selection, in lexicographic order. */
static int contains(const MatrixKernel *k)
{
    const int n = k->n, pn = k->pn;
    int *sel = k->sel, u;
    if (pn > n || k->pm > k->m)
        return 0;
    for (u = 0; u < pn; u++)
        sel[u] = u;
    for (;;) {
        if (cols_embed(k->rows, sel, k->p_rows, pn, k->pm, k->m))
            return 1;
        for (u = pn - 1; u >= 0 && sel[u] == n - pn + u; u--)
            ;
        if (u < 0)
            return 0;
        for (sel[u]++, u++; u < pn; u++)
            sel[u] = sel[u - 1] + 1;
    }
}

/* Row-major fill from cell `idx`, 1 before 0; mirrors `_kernels_py._dfs`
   on a `MatrixState` (a refused 1 leaves nodes as they were, so one budget
   check per chosen branch is the check `_dfs` makes per candidate). A new
   best is copied only before a 1 below it is cleared or when the search
   stops on it: 0-cells and the walk back over them leave the rows as they
   are. */
static int matrix_run(MatrixKernel *k, int idx, int ones)
{
    const int root = idx, total = k->total, m = k->m;
    int row = idx / m, col = idx % m, pending = 0;
    const size_t rows_size = (size_t)k->n * sizeof(u64);
    if (k->done)
        return 0;
    k->branch[idx] = 0;
    for (;;) {
        u64 bit = (u64)1 << col;
        int state = k->branch[idx];
        if (state == 0 && idx < total && ones + (total - idx) > k->best) {
            state = 2; /* no 1-branch: take the 0-branch */
            if (!breaks_row_order(k, row, col)) {
                k->rows[row] |= bit;
                if (contains(k)) {
                    k->rows[row] ^= bit;
                } else {
                    state = 1;
                    ones++;
                }
            }
        } else if (state == 1) { /* back from the 1-branch: take the 0-branch */
            if (pending)
                memcpy(k->best_rows, k->rows, rows_size), pending = 0;
            k->rows[row] ^= bit;
            ones--;
            state = 2;
        } else { /* pruned, or back from the 0-branch */
            if (idx == root)
                break;
            idx--;
            if (col-- == 0) {
                col = m - 1;
                row--;
            }
            continue;
        }
        if (k->node_budget && k->nodes >= k->node_budget) {
            if (state == 1) /* the 1 just set is not a node yet: take it back */
                k->rows[row] ^= bit;
            k->truncated = 1;
            break;
        }
        if (count_node(&k->nodes) < 0)
            return -1;
        if (state == 1 && ones > k->best) {
            k->best = ones;
            pending = 1;
            if (ones >= total) {
                k->done = 1;
                break;
            }
        }
        k->branch[idx++] = (unsigned char)state;
        k->branch[idx] = 0;
        if (++col == m) {
            col = 0;
            row++;
        }
    }
    if (pending)
        memcpy(k->best_rows, k->rows, rows_size);
    return 0;
}

PyDoc_STRVAR(matrix_search_doc,
"matrix_search(n, m, p_rows, pn, pm, node_budget=0, prefix_bits=(), initial_best=-1)\n"
"--\n\n"
"Row-major fill with 1-before-0 branching; mirrors `_kernels_py.matrix_search`.\n"
"Returns (best, rows, nodes, truncated).");

static PyObject *py_matrix_search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "m", "p_rows", "pn", "pm", "node_budget", "prefix_bits",
                             "initial_best", NULL};
    int n, m, pn, pm, initial_best = -1, ones = 0, bad;
    long long node_budget = 0;
    PyObject *p_rows, *prefix = NULL, *seq = NULL, *rows = NULL, *result = NULL;
    Py_ssize_t plen = 0;
    MatrixKernel k;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOii|LOi", kwlist, &n, &m, &p_rows, &pn,
                                     &pm, &node_budget, &prefix, &initial_best))
        return parse_failed();
    if (matrix_init(&k, n, m, p_rows, pn, pm, node_budget) < 0)
        goto done;
    if (prefix) {
        if (!(seq = PySequence_Fast(prefix, "prefix_bits must be a sequence")))
            goto done;
        plen = PySequence_Fast_GET_SIZE(seq);
        bad = plen > k.total;
        for (Py_ssize_t i = 0; i < plen && !bad; i++) {
            int overflow;
            long bit = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq, i), &overflow);
            if (bit == -1 && PyErr_Occurred())
                goto done;
            bad = overflow || (bit != 0 && bit != 1);
        }
        if (bad) {
            value_error("forced prefix must be 0/1 bits within the cell count");
            goto done;
        }
        for (Py_ssize_t i = 0; i < plen; i++) {
            int row = (int)(i / m), col = (int)(i % m);
            if (PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i)) == 0)
                continue;
            bad = breaks_row_order(&k, row, col);
            if (!bad) {
                k.rows[row] |= (u64)1 << col;
                ones++;
                bad = contains(&k);
            }
            if (bad) {
                value_error("forced prefix contains the pattern or breaks the row order");
                goto done;
            }
        }
    }
    k.best = initial_best > ones ? initial_best : ones;
    memcpy(k.best_rows, k.rows, (size_t)n * sizeof(u64));
    k.done = k.best >= k.total;
    if (matrix_run(&k, (int)plen, ones) < 0 || !(rows = PyList_New(n)))
        goto done;
    for (int i = 0; i < n; i++) {
        PyObject *item = PyLong_FromUnsignedLongLong(k.best_rows[i]);
        if (item == NULL)
            goto done;
        PyList_SET_ITEM(rows, i, item);
    }
    result = Py_BuildValue("(iOLO)", k.best, rows, k.nodes, k.truncated ? Py_True : Py_False);
done:
    Py_XDECREF(rows);
    Py_XDECREF(seq);
    matrix_free(&k);
    return result;
}

/* ------------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"seq_search", (PyCFunction)(void (*)(void))py_seq_search, METH_VARARGS | METH_KEYWORDS,
     seq_search_doc},
    {"matrix_search", (PyCFunction)(void (*)(void))py_matrix_search,
     METH_VARARGS | METH_KEYWORDS, matrix_search_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernels",
    "Compiled search kernels: exact mirror of `_kernels_py`.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod && (PyModule_AddIntConstant(mod, "MODE_DS", MODE_DS) < 0
                || PyModule_AddIntConstant(mod, "MODE_FORMATION", MODE_FORMATION) < 0
                || PyModule_AddIntConstant(mod, "MODE_PATTERN", MODE_PATTERN) < 0))
        Py_CLEAR(mod);
    return mod;
}
