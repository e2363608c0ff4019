/*
 * Compiled search kernels: an exact mirror of `_kernels_py`.
 *
 * Same arguments, candidate order, pruning and node accounting, so both twins
 * return identical (best, witness, nodes, truncated) tuples; `_kernels_py`
 * documents the algorithm. The argument checks and every value derived from
 * the arguments are `_kernels_py`'s own: each kernel first calls
 * `check_seq_search` or `check_matrix_search` there with its own arguments
 * and searches what it returns (ints, and tuples of ints that fit every
 * limit): the checked arguments, then the derived values, which it reads
 * and never computes. So the code below raises only for a refused prefix and
 * on a failed allocation, and holds only the search states, their push and
 * pop, and the search loop. The shape is the pure twin's as well: each
 * kernel state (`SeqKernel`, `MatrixKernel`, the counterparts of
 * `SeqState` and `MatrixState`) embeds a `Search` and supplies its moves,
 * push, pop and keep; one loop, `dfs`, searches either of them on an
 * explicit stack, as `_kernels_py._dfs` does, so the depth (up to the 50,000
 * ceiling or cell limit) never touches the C stack; and one entry, `run`,
 * forces a prefix and starts `dfs` below it, as `_kernels_py._run` does. The
 * DS searches keep a table of relabeled states; the `SeqState` docstring in
 * `_kernels_py` holds its proof, and `seq_key` its 64-bit code. The module
 * exports the two kernels only. Build in place with
 * `python setup.py build_ext --inplace`.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef unsigned long long u64;

enum { MODE_DS = 0, MODE_FORMATION = 1, MODE_PATTERN = 2 };

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

static int bit_count(u64 x)
{
#if defined(__GNUC__)
    return __builtin_popcountll(x);
#else
    int count = 0;
    for (; x; x &= x - 1)
        count++;
    return count;
#endif
}

/* The index of the lowest set bit of x != 0. */
static int lowest_bit(u64 x)
{
#if defined(__GNUC__)
    return __builtin_ctzll(x);
#else
    int i = 0;
    for (; !(x & 1); x >>= 1)
        i++;
    return i;
#endif
}

static int count_node(long long *nodes)
{
    if ((++*nodes & SIGNAL_MASK) == 0 && PyErr_CheckSignals() < 0)
        return -1;
    return 0;
}

static PyObject *kernels_py; /* seqext._kernels_py, imported with this module */

/* The arguments a kernel searches: `_kernels_py.<check>` called on its own
   arguments, NULL if it raised. */
static PyObject *checked_args(const char *check, PyObject *args, PyObject *kwargs)
{
    PyObject *fn = PyObject_GetAttrString(kernels_py, check), *checked;
    if (fn == NULL)
        return NULL;
    checked = PyObject_Call(fn, args, kwargs);
    Py_DECREF(fn);
    return checked;
}

/* ------------------------------------------------------------------------ */
/* The search                                                               */

/* A search state, embedded as the first member of each kernel. The moves
   at the current state are 1..last; push(s, c) makes move c if it is
   admissible (1 made, 0 refused with the state untouched, -1 on error) and
   pop(s) undoes the newest move, both keeping `last` up to date; leave(s)
   undoes the newest move once every move below it was tried (0, or -1 on
   error); keep(s) copies the current state into the witness. These are the
   counterparts of `candidates()`, `try_push`, `pop`, `leave` and
   `snapshot()`; `last` is a field because `dfs` reads it before every
   candidate. A move adds at least as much depth as value, so
   value + (limit - depth) bounds every extension; after the first move,
   value + slack bounds it too. */
typedef struct Search Search;
struct Search {
    int depth, value, limit, last, best, truncated;
    long long slack, node_budget, nodes;
    int *next; /* next[d]: the next move to try at depth d */
    int (*push)(Search *, int);
    void (*pop)(Search *);
    int (*leave)(Search *);
    void (*keep)(Search *);
};

/* Depth-first branch-and-bound below the current state; `_kernels_py._dfs`
   line for line. The node budget (0: none) is checked before every
   candidate, a node is one accepted move, and the search stops once best
   reaches `limit`. A new best is kept only when the search first backs out
   of it or stops on it: until then every move raises the value again or
   leaves the witness as it is (a 0-cell), so a straight path of any depth
   costs one copy. */
static int dfs(Search *s)
{
    const int root = s->depth;
    int pending = 0; /* the current state is a best not yet kept */
    if (s->value + (s->limit - root) <= s->best)
        return 0;
    s->next[root] = 1;
    for (;;) {
        int c = s->next[s->depth], pushed;
        if (c > s->last) {
            if (s->depth == root)
                break;
            if (pending)
                s->keep(s), pending = 0;
            if (s->leave(s) < 0)
                return -1;
            continue;
        }
        if (s->node_budget && s->nodes >= s->node_budget) {
            s->truncated = 1;
            break;
        }
        s->next[s->depth] = c + 1;
        pushed = s->push(s, c);
        if (pushed <= 0) {
            if (pushed < 0)
                return -1;
            continue;
        }
        if (count_node(&s->nodes) < 0)
            return -1;
        if (s->value > s->best) {
            s->best = s->value;
            pending = 1;
            if (s->best >= s->limit)
                break;
        }
        if (s->value + (s->limit - s->depth) > s->best && s->value + s->slack > s->best) {
            s->next[s->depth] = 1;
        } else {
            if (pending)
                s->keep(s), pending = 0;
            s->pop(s);
        }
    }
    if (pending)
        s->keep(s);
    return 0;
}

/* Force `prefix`, a tuple of moves that fit, then search below it from a
   best of at least `initial_best`. Item v is move v, and a matrix's item 0
   (a 0-cell) is its move 2; `refused` is the kernel's error for a refused
   move, a format that may show the prefix as %R. */
static int run(Search *s, PyObject *prefix, int initial_best, const char *refused)
{
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(prefix); i++) {
        long v = PyLong_AsLong(PyTuple_GET_ITEM(prefix, i));
        int pushed = v == -1 && PyErr_Occurred() ? -1 : s->push(s, v ? (int)v : 2);
        if (pushed == 0)
            PyErr_Format(PyExc_ValueError, refused, prefix);
        if (pushed <= 0)
            return -1;
    }
    s->best = initial_best > s->value ? initial_best : s->value;
    s->keep(s);
    return dfs(s);
}

/* ------------------------------------------------------------------------ */
/* Sequence search                                                          */

typedef struct {
    int idx;       /* letter-pair slot, r-subset (formation) or embedding (pattern) */
    int completed; /* formation: this push completed the subset;
                      pattern: this push appended the embedding */
    u64 old;       /* previous alt_last, partial mask (formation) or k (pattern) */
} Change;

/* A push logs its letter-pair changes, then its mode's changes. */
typedef struct {
    int last_pos, used_max, blocks_used;
    int rank; /* with a table: the letter's rank before, or the used count if new */
    u64 block_mask;
    long long slack;
    size_t mark;  /* height of the change log before the push */
    size_t pairs; /* height after the letter-pair changes */
} Undo;

/* A table entry: a state key, never 0, and the bound on the tokens to come. */
typedef struct {
    u64 key;
    long long bound;
} Entry;

/* Pattern mode: one partial embedding per mapping, as in `SeqState.reach`. */
typedef struct {
    u64 code; /* sum_a image(a) * (n+1)^(a-1), 0 for an unmapped letter */
    u64 used; /* bit x set iff letter x is the image of a pattern letter */
    int k;    /* greatest pattern prefix embedded under this mapping */
    int want; /* image of pattern[k], 0 if that letter is unmapped */
} Embedding;

/* The counterpart of `SeqState`: depth and value are the length, limit is
   the ceiling and last is min(used_max + 1, n); slack starts at the checked
   value and, in DS mode, is the runs the letter pairs can still take,
   `runs_left`, tightened by the table. */
typedef struct {
    Search search;
    int mode, n, jeff, s, max_blocks;
    int used_max, blocks_used, best_len;
    long long cap; /* the runs each letter pair may take, if alt is set */
    u64 block_mask;
    int *tokens, *best_tokens, *last_pos;
    Undo *undo;
    Change *log;
    size_t log_top, log_cap;
    /* alternation budget: run count and last letter per letter pair, NULL
       outside DS mode */
    int *alt, *alt_last;
    long long runs_left;
    /* the table of relabeled states, if `states` > 0: the `used` letters,
       most recent first; per depth the node's key and the largest 1 + bound
       of its children so far; at most `states` entries, in an
       open-addressing table (key 0 empty; linear probing) that is at most
       half full and grows with use */
    size_t states, table_used, table_cap;
    int used, *order;
    u64 *keys;
    long long *acc;
    Entry *table;
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
    Py_ssize_t plen;
    u64 *digit_pow; /* per position i: (n+1)^(pattern[i]-1), its letter's digit */
    Embedding *emb, *fresh;
    size_t emb_top, emb_cap, fresh_cap;
    size_t *slots, slot_mask;
} SeqKernel;

static void seq_free(SeqKernel *k)
{
    void *bufs[] = {k->tokens, k->best_tokens, k->last_pos, k->search.next, k->undo,
                    k->log, k->alt, k->alt_last, k->order, k->keys, k->acc, k->table,
                    k->sub_full, k->sub_partial, k->sub_count, k->letter_sub_data,
                    k->letter_sub_start, k->digit_pow, k->emb, k->fresh, k->slots};
    for (size_t i = 0; i < sizeof bufs / sizeof bufs[0]; i++)
        PyMem_Free(bufs[i]);
}

static int formation_init(SeqKernel *k, int r)
{
    int n = k->n, comb[64]; /* an r-subset of letters, each a bit of a u64 mask */
    u64 nsubs = 0;
    size_t pos = 0;
    if (r >= 1 && r <= n) {
        nsubs = 1;
        for (int i = 0; i < r; i++)
            nsubs = nsubs * (u64)(n - i) / (u64)(i + 1);
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

/* The pattern is checked to be nonempty with letters in 1..64 and
   (n+1)^ru * (plen+1) < 2^63 for its largest letter ru, which keeps every
   mapping code in range. */
static int pattern_init(SeqKernel *k, PyObject *pattern)
{
    k->plen = PyTuple_GET_SIZE(pattern);
    if (!(k->digit_pow = zalloc(k->plen, sizeof(u64))))
        return -1;
    for (Py_ssize_t i = 0; i < k->plen; i++) {
        long a = PyLong_AsLong(PyTuple_GET_ITEM(pattern, i));
        if (a == -1 && PyErr_Occurred())
            return -1;
        for (k->digit_pow[i] = 1; a > 1; a--)
            k->digit_pow[i] *= (u64)k->n + 1;
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

/* Each *_push appends c to its part of the state if the sequence stays
   admissible: 1 if pushed, 0 if rejected (state untouched), -1 on error. */

/* Starts a run of every pair {b, c} whose last letter is not c. */
static int pairs_push(SeqKernel *k, int c)
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
        if (alt[idx] >= k->cap) /* the run would be pair idx's (cap+1)-th */
            return 0;
        log[top++] = (Change){idx, 0, (u64)alt_last[idx]};
    }
    for (size_t i = k->log_top; i < top; i++) {
        alt[log[i].idx]++;
        alt_last[log[i].idx] = c;
    }
    k->runs_left -= (long long)(top - k->log_top);
    k->log_top = top;
    return 1;
}

/* Undo the pair changes log[from..to). */
static void pairs_pop(SeqKernel *k, size_t from, size_t to)
{
    for (size_t i = from; i < to; i++) {
        k->alt[k->log[i].idx]--;
        k->alt_last[k->log[i].idx] = (int)k->log[i].old;
    }
    k->runs_left += (long long)(to - from);
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

/* The key of the current state (`SeqState`), in mixed radix: the used
   count, then alt - 1 of each pair of used letters in rank order, in base
   s + 1, then, with a block budget, the blocks left + 1 if they are fewer
   than runs_left (else 0) and then the block size (else 0). The check
   gives `states` = 0 unless every such code is below 2^64, and the used
   count makes it nonzero. */
static u64 seq_key(const SeqKernel *k)
{
    const int n = k->n, u = k->used;
    u64 key = (u64)u;
    for (int a = 0; a < u; a++)
        for (int b = a + 1; b < u; b++) {
            int x = k->order[a], y = k->order[b];
            key = key * (u64)k->cap + (u64)(k->alt[x < y ? x * (n + 1) + y : y * (n + 1) + x] - 1);
        }
    if (k->max_blocks) {
        const long long left = k->max_blocks - k->blocks_used;
        const int fresh = left < k->runs_left;
        key = key * ((u64)k->max_blocks + 2) + (fresh ? (u64)left + 1 : 0);
        key = key * ((u64)n + 1) + (fresh ? (u64)bit_count(k->block_mask) : 0);
    }
    return key;
}

/* The table slot holding `key`, or the empty slot where it would go. */
static size_t entry_of(const SeqKernel *k, u64 key)
{
    const size_t mask = k->table_cap - 1;
    size_t i = (size_t)((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (k->table[i].key && k->table[i].key != key)
        i = (i + 1) & mask;
    return i;
}

/* Add a key that is not in the table; a larger table is refilled first,
   so that it stays at most half full. */
static int table_add(SeqKernel *k, u64 key, long long bound)
{
    if (2 * (k->table_used + 1) > k->table_cap) {
        Entry *old = k->table;
        size_t old_cap = k->table_cap;
        if (!(k->table = zalloc(old_cap ? 2 * old_cap : 64, sizeof(Entry)))) {
            k->table = old;
            return -1;
        }
        k->table_cap = old_cap ? 2 * old_cap : 64;
        for (size_t i = 0; i < old_cap; i++)
            if (old[i].key)
                k->table[entry_of(k, old[i].key)] = old[i];
        PyMem_Free(old);
    }
    k->table[entry_of(k, key)] = (Entry){key, bound};
    k->table_used++;
    return 0;
}

/* Put c first among the used letters; its rank before, or the used count
   before if c is new (`lp` 0). */
static int to_front(SeqKernel *k, int c, int lp)
{
    int rank = k->used;
    if (lp)
        for (rank = 0; k->order[rank] != c; rank++)
            ;
    else
        k->used++;
    memmove(k->order + 1, k->order, (size_t)rank * sizeof(int));
    k->order[0] = c;
    return rank;
}

/* The letters 1..min(used_max + 1, n); mirrors `SeqState.candidates`. */
static int seq_last(const SeqKernel *k)
{
    return k->used_max < k->n ? k->used_max + 1 : k->n;
}

/* Append letter c if the sequence stays admissible; mirrors `SeqState.try_push`. */
static int seq_push(Search *s, int c)
{
    SeqKernel *k = (SeqKernel *)s;
    int d = s->depth, lp = k->last_pos[c], pushed, rank;
    int new_block = k->max_blocks && (k->block_mask == 0 || (k->block_mask >> c) & 1);
    size_t mark = k->log_top, pairs;
    if ((lp && d + 1 - lp < k->jeff) || (new_block && k->blocks_used + 1 > k->max_blocks))
        return 0;
    if (k->alt && (pushed = pairs_push(k, c)) <= 0)
        return pushed;
    pairs = k->log_top;
    if (k->mode == MODE_FORMATION)
        pushed = formation_push(k, c);
    else if (k->mode == MODE_PATTERN)
        pushed = pattern_push(k, c);
    else
        pushed = 1;
    if (pushed <= 0) {
        pairs_pop(k, mark, pairs);
        k->log_top = mark;
        return pushed;
    }
    rank = k->states ? to_front(k, c, lp) : 0;
    k->undo[d] = (Undo){lp, k->used_max, k->blocks_used, rank, k->block_mask, s->slack, mark,
                        pairs};
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
    s->depth = s->value = d + 1;
    s->last = seq_last(k);
    if (k->alt)
        s->slack = k->runs_left;
    if (k->states) {
        const u64 key = k->keys[d + 1] = seq_key(k);
        k->acc[d + 1] = 0;
        if (k->table) {
            const Entry *e = &k->table[entry_of(k, key)];
            if (e->key) /* an entry is below runs_left */
                s->slack = e->bound;
        }
    }
    return 1;
}

static void seq_pop(Search *s)
{
    SeqKernel *k = (SeqKernel *)s;
    int d = s->value = --s->depth, c = k->tokens[d];
    const Undo *u = &k->undo[d];
    k->last_pos[c] = u->last_pos;
    k->used_max = u->used_max;
    k->blocks_used = u->blocks_used;
    k->block_mask = u->block_mask;
    s->last = seq_last(k);
    /* newest first: a pattern push may raise one embedding twice */
    for (size_t i = k->log_top; i-- > u->pairs;) {
        const Change *ch = &k->log[i];
        if (k->mode == MODE_FORMATION) {
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
    pairs_pop(k, u->mark, u->pairs);
    k->log_top = u->mark;
    if (k->states) { /* the node gives 1 + its slack to its parent's bound */
        if (s->slack + 1 > k->acc[d])
            k->acc[d] = s->slack + 1;
        memmove(k->order, k->order + 1, (size_t)u->rank * sizeof(int));
        if (u->last_pos)
            k->order[u->rank] = c;
        else
            k->used--;
    }
    s->slack = u->slack;
}

/* Back out of the newest move once every move below it was tried: store
   its bound, the smaller of its slack and its children's, then pop;
   mirrors `SeqState.leave`. */
static int seq_leave(Search *s)
{
    SeqKernel *k = (SeqKernel *)s;
    const int d = s->depth;
    if (k->states && k->acc[d] < s->slack) {
        /* an entry is below runs_left, so a smaller slack is the key's entry */
        if (s->slack < k->runs_left)
            k->table[entry_of(k, k->keys[d])].bound = k->acc[d];
        else if (k->table_used < k->states && table_add(k, k->keys[d], k->acc[d]) < 0)
            return -1;
        s->slack = k->acc[d];
    }
    seq_pop(s);
    return 0;
}

/* Copy the current prefix into the witness. */
static void seq_keep(Search *s)
{
    SeqKernel *k = (SeqKernel *)s;
    memcpy(k->best_tokens, k->tokens, (size_t)s->depth * sizeof(int));
    k->best_len = s->depth;
}

/* The buffers of a kernel whose checked fields are set; `cap` is the checked
   run cap, an int in DS mode. */
static int seq_init(SeqKernel *k, int r, PyObject *pattern, PyObject *cap)
{
    const int n = k->n;
    size_t depth = (size_t)k->search.limit + 1;
    k->search.last = 1;
    k->search.push = seq_push;
    k->search.pop = seq_pop;
    k->search.leave = seq_leave;
    k->search.keep = seq_keep;
    if (!(k->tokens = zalloc(depth, sizeof(int)))
        || !(k->best_tokens = zalloc(depth, sizeof(int)))
        || !(k->search.next = zalloc(depth, sizeof(int)))
        || !(k->undo = zalloc(depth, sizeof(Undo)))
        || !(k->last_pos = zalloc(n + 1, sizeof(int))))
        return -1;
    if (k->mode != MODE_DS)
        return k->mode == MODE_FORMATION ? formation_init(k, r) : pattern_init(k, pattern);
    k->runs_left = k->search.slack;
    if (((k->cap = PyLong_AsLongLong(cap)) == -1 && PyErr_Occurred())
        || !(k->alt = zalloc((n + 1) * (n + 1), sizeof(int)))
        || !(k->alt_last = zalloc((n + 1) * (n + 1), sizeof(int))))
        return -1;
    if (k->states
        && (!(k->order = zalloc(n, sizeof(int))) || !(k->keys = zalloc(depth, sizeof(u64)))
            || !(k->acc = zalloc(depth, sizeof(long long)))))
        return -1;
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
"truncated). Pattern mode ignores s.");

static PyObject *py_seq_search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    int j, r, initial_best; /* the search reads jeff, not j */
    Py_ssize_t states;
    PyObject *pattern, *prefix, *cap, *result = NULL;
    PyObject *checked = checked_args("check_seq_search", args, kwargs);
    SeqKernel k;
    (void)self;
    memset(&k, 0, sizeof k);
    if (!checked
        || !PyArg_ParseTuple(checked, "iiiiiiO!iLO!iiOLn", &k.mode, &k.n, &j, &k.search.limit,
                             &k.s, &r, &PyTuple_Type, &pattern, &k.max_blocks,
                             &k.search.node_budget, &PyTuple_Type, &prefix, &initial_best,
                             &k.jeff, &cap, &k.search.slack, &states)
        || (k.states = (size_t)states, seq_init(&k, r, pattern, cap) < 0)
        || run(&k.search, prefix, initial_best, "forced prefix %R is not admissible") < 0)
        goto done;
    result = Py_BuildValue("(iNLO)", k.search.best, int_list(k.best_tokens, k.best_len),
                           k.search.nodes, k.search.truncated ? Py_True : Py_False);
done:
    seq_free(&k);
    Py_XDECREF(checked);
    return result;
}

/* ------------------------------------------------------------------------ */
/* Matrix search                                                            */

/* The counterpart of `MatrixState`: depth is the cells filled row-major,
   value the ones among them, limit the cell count. Its moves are 1 and 2,
   in the order of `MatrixState.candidates`: move 1 sets the next cell to 1,
   move 2 to 0. After each move, slack is `MatrixState`'s Russian-doll slack
   over `bounds`, the checked table padded to n + 1 bounds. P's rows as
   searched, last, equal_rows and equal_cols are the checked values too. */
typedef struct {
    Search search;
    int n, m, pn, pm;
    int row, col; /* the next cell: depth = row * m + col */
    int equal_rows; /* every pattern row is equal: the row-order rule applies */
    int equal_cols; /* every pattern column is equal: the column rule applies */
    int last; /* P's last nonempty row; -1 when P does not fit the host */
    u64 full; /* the m columns */
    u64 *rows, *best_rows, *p_rows;
    u64 *tie; /* tie[i]: bit c set when columns c-1 and c agree on rows 0..i-1 */
    long long *bounds;
    int *sel;
} MatrixKernel;

static void matrix_free(MatrixKernel *k)
{
    PyMem_Free(k->rows);
    PyMem_Free(k->best_rows);
    PyMem_Free(k->p_rows);
    PyMem_Free(k->tie);
    PyMem_Free(k->bounds);
    PyMem_Free(k->sel);
    PyMem_Free(k->search.next);
}

/* The order rules of `MatrixState`, for a 1 at (row, col) (the cells from
   col on are still 0): with equal pattern rows, refused if the row above
   has a 0 there and equals this row on the columns before col; with equal
   pattern columns, refused if the cell to the left is 0 and its column
   agrees with this one above the row. */
static int breaks_order(const MatrixKernel *k, int row, int col)
{
    const u64 cur = k->rows[row];
    if (k->equal_rows && row > 0) {
        const u64 above = k->rows[row - 1];
        if (!((above >> col) & 1) && cur == (above & (((u64)1 << col) - 1)))
            return 1;
    }
    return k->equal_cols && col > 0 && !((cur >> (col - 1)) & 1) && ((k->tie[row] >> col) & 1);
}

/* Greedy column matching of P's rows 0..last on the host rows sel[0..last]:
   each P column goes to the first column after the previous match among
   the AND of the host rows whose P rows have a 1 in it. */
static int embeds(const MatrixKernel *k, const int *sel)
{
    int pos = 0; /* the first column not yet matched, at most m <= 62 */
    for (int v = 0; v < k->pm; v++) {
        u64 c = k->full;
        for (int w = 0; w <= k->last; w++)
            if ((k->p_rows[w] >> v) & 1)
                c &= k->rows[sel[w]];
        c >>= pos;
        if (!c)
            return 0;
        pos += lowest_bit(c) + 1;
    }
    return 1;
}

/* Does the 1 just set in `row` complete an occurrence of P? The row takes
   P's last nonempty row, and every choice of `last` rows above it, in
   lexicographic order, the rows before; `MatrixState.completes`. */
static int completes(const MatrixKernel *k, int row)
{
    const int last = k->last;
    int *sel = k->sel, u;
    if (last < 0 || row < last || row > k->n - k->pn + last)
        return 0;
    for (u = 0; u < last; u++)
        sel[u] = u;
    sel[last] = row;
    for (;;) {
        if (embeds(k, sel))
            return 1;
        for (u = last - 1; u >= 0 && sel[u] == row - last + u; u--)
            ;
        if (u < 0)
            return 0;
        for (sel[u]++, u++; u < last; u++)
            sel[u] = sel[u - 1] + 1;
    }
}

/* Fill the next cell: a 1 for move 1, refused if it breaks an order rule or
   completes an occurrence of P, and a 0 for move 2; then the slack at the
   new next cell. Mirrors `MatrixState.try_push`. */
static int matrix_push(Search *s, int c)
{
    MatrixKernel *k = (MatrixKernel *)s;
    const int row = k->row, col = k->col;
    int rest;
    if (col == 0 && row > 0 && k->equal_cols) {
        const u64 above = k->rows[row - 1];
        k->tie[row] = k->tie[row - 1] & ~(above ^ (above << 1));
    }
    if (c == 1) {
        const u64 bit = (u64)1 << col;
        if (breaks_order(k, row, col))
            return 0;
        k->rows[row] |= bit;
        if (completes(k, row)) {
            k->rows[row] ^= bit;
            return 0;
        }
        s->value++;
    }
    s->depth++;
    if (++k->col == k->m)
        k->col = 0, k->row++;
    rest = k->n - k->row;
    if (rest == 0) {
        s->slack = 0;
    } else {
        long long cells = (k->m - k->col) + k->bounds[rest - 1];
        long long rows = k->bounds[rest] - bit_count(k->rows[k->row]);
        s->slack = cells < rows ? cells : rows;
    }
    return 1;
}

/* Clear the newest cell if it is set: cells from the fill line on are 0. */
static void matrix_pop(Search *s)
{
    MatrixKernel *k = (MatrixKernel *)s;
    u64 bit;
    s->depth--;
    if (k->col-- == 0)
        k->col = k->m - 1, k->row--;
    bit = (u64)1 << k->col;
    if (k->rows[k->row] & bit) {
        k->rows[k->row] ^= bit;
        s->value--;
    }
}

static int matrix_leave(Search *s)
{
    matrix_pop(s);
    return 0;
}

static void matrix_keep(Search *s)
{
    MatrixKernel *k = (MatrixKernel *)s;
    memcpy(k->best_rows, k->rows, (size_t)k->n * sizeof(u64));
}

/* The buffers of a kernel whose checked fields are set: `p_rows`, P's pn
   rows as searched (below 2^62), and `bounds`, the n + 1 padded bounds. */
static int matrix_init(MatrixKernel *k, PyObject *p_rows, PyObject *bounds)
{
    const int n = k->n, m = k->m;
    k->full = ((u64)1 << m) - 1;
    k->search.limit = n * m;
    k->search.slack = n * m;
    k->search.last = 2;
    k->search.push = matrix_push;
    k->search.pop = matrix_pop;
    k->search.leave = matrix_leave;
    k->search.keep = matrix_keep;
    if (!(k->rows = zalloc(n, sizeof(u64))) || !(k->best_rows = zalloc(n, sizeof(u64)))
        || !(k->p_rows = zalloc(k->pn, sizeof(u64))) || !(k->sel = zalloc(k->pn, sizeof(int)))
        || !(k->tie = zalloc(n, sizeof(u64)))
        || !(k->bounds = zalloc((size_t)n + 1, sizeof(long long)))
        || !(k->search.next = zalloc((size_t)n * m + 1, sizeof(int))))
        return -1;
    for (int u = 0; u < k->pn; u++)
        if ((k->p_rows[u] = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(p_rows, u))) == (u64)-1
            && PyErr_Occurred())
            return -1;
    for (int i = 0; i <= n; i++)
        if ((k->bounds[i] = PyLong_AsLongLong(PyTuple_GET_ITEM(bounds, i))) == -1
            && PyErr_Occurred())
            return -1;
    k->tie[0] = k->full;
    return 0;
}

PyDoc_STRVAR(matrix_search_doc,
"matrix_search(n, m, p_rows, pn, pm, node_budget=0, prefix=(), initial_best=-1, row_bounds=())\n"
"--\n\n"
"Row-major fill with 1-before-0 branching; mirrors `_kernels_py.matrix_search`.\n"
"Returns (best, rows, nodes, truncated).");

static PyObject *py_matrix_search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    int initial_best;
    /* given: P's rows and the row table as passed; the kernel reads the
       searched rows and the padded table */
    PyObject *given, *p_rows, *prefix, *bounds, *rows = NULL, *result = NULL;
    PyObject *checked = checked_args("check_matrix_search", args, kwargs);
    MatrixKernel k;
    (void)self;
    memset(&k, 0, sizeof k);
    if (!checked
        || !PyArg_ParseTuple(checked, "iiOiiLO!iOO!ippO!", &k.n, &k.m, &given, &k.pn, &k.pm,
                             &k.search.node_budget, &PyTuple_Type, &prefix, &initial_best,
                             &given, &PyTuple_Type, &p_rows, &k.last, &k.equal_rows,
                             &k.equal_cols, &PyTuple_Type, &bounds)
        || matrix_init(&k, p_rows, bounds) < 0
        || run(&k.search, prefix, initial_best,
               "forced prefix contains the pattern or breaks the row or column order") < 0
        || !(rows = PyList_New(k.n)))
        goto done;
    for (int i = 0; i < k.n; i++) {
        PyObject *item = PyLong_FromUnsignedLongLong(k.best_rows[i]);
        if (item == NULL)
            goto done;
        PyList_SET_ITEM(rows, i, item);
    }
    result = Py_BuildValue("(iOLO)", k.search.best, rows, k.search.nodes,
                           k.search.truncated ? Py_True : Py_False);
done:
    Py_XDECREF(rows);
    matrix_free(&k);
    Py_XDECREF(checked);
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
    if (kernels_py == NULL && !(kernels_py = PyImport_ImportModule("seqext._kernels_py")))
        return NULL;
    return PyModule_Create(&module);
}
