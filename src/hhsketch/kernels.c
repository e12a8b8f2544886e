/* The native passes and reads of all five sketches (see native.py).

   Each insert pass feeds n keys through one sketch's buffers in place and
   runs that sketch's scalar insert() per key:

     elastic_pass           ElasticHH and ElasticStd (elastic.py)
     sketch_heap_pass       CMHeap and CountHeap (baselines.py)
     spacesaving_pass       SpaceSaving (baselines.py)

   native.py calls them through ctypes, without the GIL.

   Every read is a call of one extension type, Reader (at the end of this
   file), built once per sketch over its buffers and scalar parameters.  It
   runs the sketch's query() rule on one key, or on each key of a batch:

     elastic_query          ElasticHH and ElasticStd
     estimate               CMHeap and CountHeap
     spacesaving_query      SpaceSaving

   A Reader is CPython C-API code, so each call holds the GIL, which keeps
   its one Count-sketch scratch to one reader at a time.

   mix64() is core.mix64, and a hash row's index is mix64(row_seed ^ key) %
   range, as in core.HashFamily. */

/* Python.h comes first, as the C API requires */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>

static inline uint64_t mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
}

/* Exported for the tests; the passes call mix(), which the compiler can
   inline (an exported function of a shared library cannot be). */
uint64_t mix64(uint64_t x)
{
    return mix(x);
}

/* ---- The key->slot table of the top-k heap and of Space-Saving
   (baselines._KeyTable).

   keys holds the flows by slot.  table, of 1 << (32 - shift) entries (at
   least 2 * capacity), maps a key to its slot by linear probing from the
   key's Fibonacci hash, holding slot + 1, or 0 for an empty entry; tix
   holds each slot's table index. */

#define FIB 0x9E3779B1u

typedef struct {
    uint32_t *keys, *tix, *table;
    size_t mask;
    unsigned shift;
} keytab_t;

static keytab_t keytab(uint32_t *keys, uint32_t *tix, uint32_t *table, unsigned shift)
{
    keytab_t kt = {keys, tix, table, ((size_t)1 << (32 - shift)) - 1, shift};
    return kt;
}

static inline size_t home(const keytab_t *kt, uint32_t key)
{
    return (uint32_t)(key * FIB) >> kt->shift;
}

/* Table index of key's entry, or of the empty entry that ends its probe. */
static inline size_t probe(const keytab_t *kt, uint32_t key)
{
    size_t t = home(kt, key);
    while (kt->table[t] && kt->keys[kt->table[t] - 1] != key)
        t = (t + 1) & kt->mask;
    return t;
}

/* Puts key in slot i, found through table entry t. */
static inline void link_entry(keytab_t *kt, size_t i, uint32_t key, uint32_t t)
{
    kt->keys[i] = key;
    kt->tix[i] = t;
    kt->table[t] = (uint32_t)i + 1;
}

/* Empties table entry t by backward shift: a later entry of the cluster
   moves into the hole unless its home lies cyclically in (hole, entry]. */
static inline void unlink_entry(keytab_t *kt, size_t t)
{
    for (size_t j = (t + 1) & kt->mask; kt->table[j]; j = (j + 1) & kt->mask) {
        uint32_t s = kt->table[j];
        if (((j - home(kt, kt->keys[s - 1])) & kt->mask) >= ((j - t) & kt->mask)) {
            kt->table[t] = s;
            kt->tix[s - 1] = (uint32_t)t;
            t = j;
        }
    }
    kt->table[t] = 0;
}

/* ---- The Elastic pass, for both variants (see elastic.py).

   elastic_pass() takes ids, votes and vote_minus, the sketch's array('I')
   buffers, and flags and light, its bytearrays.  It runs the same
   votes-first cell scan as _ElasticBucket.insert(), and the full-bucket
   rule of _ElasticBucket._full, from the same three class constants
   (INCLUSIVE, RESET and light) as three arguments:

     inclusive  the newcomer wins when vm >= lam * min_v (else vm > ...),
                compared in double precision as Python compares an int with
                a float (vm and min_v are exact in a double)
     reset      a winner starts at 1 vote and sets its cell's flag (else it
                inherits min_v + 1)
     light      the residue (an evicted flow's votes, or a losing packet) is
                added to the 8-bit light counter its key hashes to, with
                saturation; NULL drops it

   tallies[5] receives the counts of this call: hits, empty inserts, wins
   (replacements or evictions), losses (discards or packets sent to the
   light part), and 1 when a light add saturated. */

#define VOTE_MAX UINT32_MAX
#define LIGHT_MAX 255u
#define AHEAD 8 /* packets whose buckets are hashed and prefetched early */

enum { HIT, EMPTY, FULL };

/* Adds amount to light counter i, saturating at LIGHT_MAX; 1 if counts were lost. */
static int light_add(uint8_t *light, uint64_t i, uint32_t amount)
{
    int clip = amount > LIGHT_MAX - light[i];
    light[i] = clip ? LIGHT_MAX : light[i] + amount;
    return clip;
}

/* The cell scan of insert(): HIT or EMPTY with *cell the cell f matched or
   the first empty one, else FULL with *cell the first smallest cell. */
static inline int scan(const uint32_t *id, const uint32_t *v, size_t cells, uint32_t f,
                       size_t *cell)
{
    size_t min_i = 0;
    uint64_t min_v = (uint64_t)VOTE_MAX + 1;
    for (size_t i = 0; i < cells; i++) {
        if (!v[i]) {
            *cell = i;
            return EMPTY;
        }
        if (id[i] == f) {
            *cell = i;
            return HIT;
        }
        /* branch-free: the first smallest cell, as in insert() */
        int less = v[i] < min_v;
        min_i = less ? i : min_i;
        min_v = less ? v[i] : min_v;
    }
    *cell = min_i;
    return FULL;
}

void elastic_pass(const uint32_t *keys, size_t n,
                  uint32_t *ids, uint32_t *votes, uint32_t *vote_minus,
                  uint64_t bucket_seed, uint64_t bucket_count, size_t cells,
                  double lam, int inclusive, int reset, uint8_t *flags,
                  uint8_t *light, uint64_t light_seed, uint64_t light_size,
                  uint64_t *tallies)
{
    uint64_t hits = 0, empties = 0, wins = 0, losses = 0, clipped = 0;
    uint64_t ahead[AHEAD]; /* the buckets of the next AHEAD keys */

    for (size_t k = 0; k < n && k < AHEAD; k++)
        ahead[k] = mix(bucket_seed ^ keys[k]) % bucket_count;
    for (size_t k = 0; k < n; k++) {
        uint32_t f = keys[k];
        uint64_t b = ahead[k % AHEAD];
        if (k + AHEAD < n) {
            uint64_t next = mix(bucket_seed ^ keys[k + AHEAD]) % bucket_count;
            ahead[k % AHEAD] = next;
            __builtin_prefetch(ids + next * cells, 1);
            __builtin_prefetch(votes + next * cells, 1);
        }
        uint32_t *id = ids + b * cells, *v = votes + b * cells;
        size_t i;
        int kind = scan(id, v, cells, f, &i);
        if (kind == HIT) {
            v[i] += v[i] < VOTE_MAX;
            hits++;
            continue;
        }
        if (kind == EMPTY) {
            id[i] = f;
            v[i] = 1;
            empties++;
            continue;
        }

        uint32_t min_v = v[i], old_id = id[i];
        uint32_t vm = vote_minus[b];
        vm += vm < VOTE_MAX;
        double bar = lam * (double)min_v;
        int win = inclusive ? (double)vm >= bar : (double)vm > bar;
        /* the winner's and the loser's writes are selected through a mask,
           so no branch waits on the comparison, which under the tailored
           rule goes either way often */
        uint32_t w = -(uint32_t)win;
        uint32_t won_v = reset ? 1 : min_v + (min_v < VOTE_MAX);
        id[i] = (f & w) | (old_id & ~w);
        v[i] = (won_v & w) | (min_v & ~w);
        vote_minus[b] = vm & ~w;
        if (reset)
            flags[b * cells + i] |= (uint8_t)win;
        wins += win;
        losses += !win;
        if (light) {
            /* the evicted flow's counter, or the losing packet's */
            uint64_t li = mix(light_seed ^ (win ? old_id : f)) % light_size;
            clipped |= light_add(light, li, win ? min_v : 1);
        }
    }
    tallies[0] = hits;
    tallies[1] = empties;
    tallies[2] = wins;
    tallies[3] = losses;
    tallies[4] = clipped;
}

/* An Elastic sketch's read arguments: flags is NULL without RESET, and
   light NULL without a light part. */
typedef struct {
    const uint32_t *ids, *votes;
    const uint8_t *flags, *light;
    uint64_t bucket_seed, bucket_count;
    size_t cells;
    uint64_t light_seed, light_size;
} elastic_view_t;

/* _ElasticBucket.query(): the votes of f's cell, found by insert()'s scan,
   plus f's light counter when f is not resident or its cell is flagged.
   A flow can hold 2**32 - 1 votes and 255 light counts, hence 64 bits. */
static uint64_t elastic_query(const elastic_view_t *ev, uint32_t f)
{
    uint64_t base = mix(ev->bucket_seed ^ f) % ev->bucket_count * ev->cells;
    size_t i;
    int hit = scan(ev->ids + base, ev->votes + base, ev->cells, f, &i) == HIT;
    uint64_t est = hit ? ev->votes[base + i] : 0;
    if (ev->light && (!hit || (ev->flags && ev->flags[base + i])))
        est += ev->light[mix(ev->light_seed ^ f) % ev->light_size];
    return est;
}

/* ---- The CMHeap and CountHeap pass and reads (see baselines.py).

   sketch_heap_pass() feeds the keys through a linear sketch of rows x width
   counters and its top-k heap and returns the heap's new size.  It runs
   _SketchHeapBase.insert() and _TopKHeap.offer() per key, and one argument
   states the sketch:

     count_sketch  0: Count-Min. counters is uint32, every step is +1 and
                   saturates at 2**32 - 1, and the estimate is the row
                   minimum.
                   1: Count sketch. counters is int32, the step is the
                   key's sign hash (+1 when the hash of row rows + r is
                   odd), clamped at +-(2**31 - 1), and the estimate is the
                   upper median over rows of sign * counter, floored at 0;
                   scratch holds rows int32s.

   seeds are the hash rows' seeds (rows, or 2 * rows for a Count sketch).
   The heap is _TopKHeap's: its key table, with ests holding each slot's
   estimate, the first size of capacity slots in use.

   estimate() reads the same counters by the same rule without writing
   them, as _SketchHeapBase.query() does, through the same sign() and
   upper_median().

   Neither sketch's per-row step branches on the data.  Count-Min's add
   and minimum are selects.  A Count sketch's sign is a coin toss per row,
   so sign() computes it from the hash bit, count_add() keeps the old
   counter through a select, and upper_median() is an insertion network
   whose compare-exchanges are selects: gcc -O2 compiles all three to
   cmov and arithmetic.  The heap's sifts and the key table's probes still
   branch; the sifts are inline, so offer() runs them without a call. */

#define CM_MAX UINT32_MAX
#define COUNT_MAX INT32_MAX

typedef struct {
    keytab_t kt;
    uint32_t *ests;
    size_t size, capacity;
} heap_t;

static inline void place(heap_t *h, size_t i, uint32_t key, uint32_t est, uint32_t t)
{
    h->ests[i] = est;
    link_entry(&h->kt, i, key, t);
}

static inline size_t sift_up(heap_t *h, size_t i)
{
    uint32_t key = h->kt.keys[i], est = h->ests[i], t = h->kt.tix[i];
    while (i > 0) {
        size_t parent = (i - 1) >> 1;
        if (h->ests[parent] <= est)
            break;
        place(h, i, h->kt.keys[parent], h->ests[parent], h->kt.tix[parent]);
        i = parent;
    }
    place(h, i, key, est, t);
    return i;
}

static inline size_t sift_down(heap_t *h, size_t i)
{
    uint32_t key = h->kt.keys[i], est = h->ests[i], t = h->kt.tix[i];
    for (;;) {
        size_t child = 2 * i + 1;
        if (child >= h->size)
            break;
        if (child + 1 < h->size && h->ests[child + 1] < h->ests[child])
            child++;
        if (h->ests[child] >= est)
            break;
        place(h, i, h->kt.keys[child], h->ests[child], h->kt.tix[child]);
        i = child;
    }
    place(h, i, key, est, t);
    return i;
}

/* _TopKHeap.offer(): update a resident key, push while there is room, or
   replace the minimum when est exceeds it. */
static void offer(heap_t *h, uint32_t key, uint32_t est)
{
    size_t t = probe(&h->kt, key);
    if (h->kt.table[t]) {
        size_t i = h->kt.table[t] - 1;
        h->ests[i] = est;
        sift_up(h, sift_down(h, i));
    } else if (h->size < h->capacity) {
        place(h, h->size, key, est, (uint32_t)t);
        sift_up(h, h->size++);
    } else if (est > h->ests[0]) {
        /* the unlink can open a hole on key's probe path, so probe again */
        unlink_entry(&h->kt, h->kt.tix[0]);
        place(h, 0, key, est, (uint32_t)probe(&h->kt, key));
        sift_down(h, 0);
    }
}

/* Offset of key f's counter in row r of rows x width counters. */
static inline uint64_t cell(const uint64_t *seeds, size_t r, uint32_t f, uint64_t width)
{
    return r * width + mix(seeds[r] ^ f) % width;
}

/* Key f's Count sketch step in row r: +1 when the hash of row rows + r is
   odd, else -1, computed from the hash bit without a branch. */
static inline int sign(const uint64_t *seeds, size_t rows, size_t r, uint32_t f)
{
    return (int)(mix(seeds[rows + r] ^ f) & 1) * 2 - 1;
}

/* c + s, or c when the sum leaves +-COUNT_MAX: added in 64 bits, and the
   old counter kept through a select. */
static inline int32_t count_add(int32_t c, int s)
{
    int64_t v = (int64_t)c + s;
    return v > COUNT_MAX || v < -COUNT_MAX ? c : (int32_t)v;
}

/* sorted(v)[rows // 2], floored at 0; sorts v in place.  An insertion
   network: each v[i] moves down by compare-exchanges over every earlier
   position, with min and max as selects, so which values meet depends on
   rows alone and no branch waits on a comparison. */
static inline uint32_t upper_median(int32_t *v, size_t rows)
{
    for (size_t i = 1; i < rows; i++)
        for (size_t j = i; j > 0; j--) {
            int32_t a = v[j - 1], b = v[j];
            v[j - 1] = a < b ? a : b;
            v[j] = a < b ? b : a;
        }
    return v[rows / 2] > 0 ? (uint32_t)v[rows / 2] : 0;
}

size_t sketch_heap_pass(const uint32_t *keys, size_t n, void *counters, size_t rows,
                        uint64_t width, const uint64_t *seeds, int count_sketch,
                        int32_t *scratch, uint32_t *heap_keys, uint32_t *heap_ests,
                        uint32_t *tix, uint32_t *table, unsigned shift, size_t capacity,
                        size_t size)
{
    heap_t h = {keytab(heap_keys, tix, table, shift), heap_ests, size, capacity};

    for (size_t k = 0; k < n; k++) {
        uint32_t f = keys[k];
        uint32_t est;
        if (count_sketch) {
            int32_t *c = counters;
            for (size_t r = 0; r < rows; r++) {
                int32_t *p = c + cell(seeds, r, f, width);
                int s = sign(seeds, rows, r, f);
                *p = count_add(*p, s);
                scratch[r] = s * *p;
            }
            est = upper_median(scratch, rows);
        } else {
            uint32_t *c = counters;
            est = CM_MAX;
            for (size_t r = 0; r < rows; r++) {
                uint32_t *p = c + cell(seeds, r, f, width);
                *p += *p < CM_MAX;
                est = *p < est ? *p : est;
            }
        }
        offer(&h, f, est);
    }
    return h.size;
}

/* The estimate of key f, read as the pass computes it after its writes:
   the row minimum, or the upper median of sign * counter floored at 0,
   with scratch holding rows int32s. */
static inline uint32_t estimate(uint32_t f, const void *counters, size_t rows, uint64_t width,
                                const uint64_t *seeds, int count_sketch, int32_t *scratch)
{
    if (count_sketch) {
        const int32_t *c = counters;
        for (size_t r = 0; r < rows; r++)
            scratch[r] = sign(seeds, rows, r, f) * c[cell(seeds, r, f, width)];
        return upper_median(scratch, rows);
    }
    const uint32_t *c = counters;
    uint32_t est = CM_MAX;
    for (size_t r = 0; r < rows; r++) {
        uint32_t v = c[cell(seeds, r, f, width)];
        est = v < est ? v : est;
    }
    return est;
}

/* A CMHeap's or CountHeap's read arguments: those of estimate(). */
typedef struct {
    const void *counters;
    size_t rows;
    uint64_t width;
    const uint64_t *seeds;
    int count_sketch;
    int32_t *scratch;
} sketch_view_t;

/* ---- The Space-Saving pass (see baselines.py).

   spacesaving_pass() feeds the keys through a Space-Saving table and
   returns its new size.  It runs SpaceSaving.insert() per key over the same
   arrays: its key table, with counts and errors by slot, the first size of
   capacity slots in use, kept as a 4-ary min-heap on (count, key), compared
   as count << 32 | key: keys are distinct, so the order has no ties.  The
   children of slot i are 4i + 1 ... 4i + 4, and a sift down picks the
   smallest without a branch, as scan() picks a bucket's smallest cell: on
   a churning trace most packets evict, and the root's entry sinks nearly
   to the bottom, where a binary heap's child choice is a coin toss.

   A hit adds 1 to the flow's count and sifts it down; a new flow is pushed
   with count 1 and error 0 while there is room; otherwise it takes the
   root's slot with count c0 + 1 and error c0, where c0 is the root's count,
   and sifts down.  Counts saturate at 2**32 - 1. */

#define SS_ARITY 4

typedef struct {
    keytab_t kt;
    uint32_t *counts, *errors;
    size_t size;
} ss_t;

/* The one saturating step, for a hit and for an eviction alike. */
static inline uint32_t bump(uint32_t c)
{
    return c + (c < UINT32_MAX);
}

static inline uint64_t rank(uint32_t count, uint32_t key)
{
    return (uint64_t)count << 32 | key;
}

static inline void put(ss_t *s, size_t i, uint32_t key, uint32_t count, uint32_t error,
                       uint32_t t)
{
    s->counts[i] = count;
    s->errors[i] = error;
    link_entry(&s->kt, i, key, t);
}

/* Places the entry at the hole i or above it, moving larger parents down. */
static void ss_sift_up(ss_t *s, size_t i, uint32_t key, uint32_t count, uint32_t error,
                       uint32_t t)
{
    uint64_t r = rank(count, key);
    while (i > 0) {
        size_t p = (i - 1) / SS_ARITY;
        if (rank(s->counts[p], s->kt.keys[p]) < r)
            break;
        put(s, i, s->kt.keys[p], s->counts[p], s->errors[p], s->kt.tix[p]);
        i = p;
    }
    put(s, i, key, count, error, t);
}

/* Places the entry at the hole i or below it, moving the smallest child up
   while it ranks below the entry. */
static void ss_sift_down(ss_t *s, size_t i, uint32_t key, uint32_t count, uint32_t error,
                         uint32_t t)
{
    uint64_t r = rank(count, key);
    for (;;) {
        size_t first = SS_ARITY * i + 1;
        if (first >= s->size)
            break;
        size_t end = first + SS_ARITY < s->size ? first + SS_ARITY : s->size;
        size_t child = first;
        uint64_t rc = rank(s->counts[first], s->kt.keys[first]);
        for (size_t c = first + 1; c < end; c++) {
            /* branch-free: the smaller of the running minimum and child c */
            uint64_t rj = rank(s->counts[c], s->kt.keys[c]);
            int less = rj < rc;
            child = less ? c : child;
            rc = less ? rj : rc;
        }
        if (rc > r)
            break;
        put(s, i, s->kt.keys[child], s->counts[child], s->errors[child], s->kt.tix[child]);
        i = child;
    }
    put(s, i, key, count, error, t);
}

size_t spacesaving_pass(const uint32_t *keys, size_t n, uint32_t *ss_keys, uint32_t *counts,
                        uint32_t *errors, uint32_t *tix, uint32_t *table, unsigned shift,
                        size_t capacity, size_t size)
{
    ss_t s = {keytab(ss_keys, tix, table, shift), counts, errors, size};

    for (size_t k = 0; k < n; k++) {
        uint32_t f = keys[k];
        size_t t = probe(&s.kt, f);
        if (table[t]) {
            size_t i = table[t] - 1;
            ss_sift_down(&s, i, f, bump(counts[i]), errors[i], (uint32_t)t);
        } else if (s.size < capacity) {
            ss_sift_up(&s, s.size++, f, 1, 0, (uint32_t)t);
        } else {
            /* the unlink can open a hole on f's probe path, so probe again */
            uint32_t c0 = counts[0];
            unlink_entry(&s.kt, tix[0]);
            ss_sift_down(&s, 0, f, bump(c0), c0, (uint32_t)probe(&s.kt, f));
        }
    }
    return s.size;
}

/* SpaceSaving.query()'s read arguments: the key table (its tix is not read)
   and counts, by slot. */
typedef struct {
    keytab_t kt;
    const uint32_t *counts;
} ss_view_t;

/* SpaceSaving.query(): the count of f's slot, found by the pass's probe,
   or 0 when f is not monitored. */
static uint32_t spacesaving_query(const ss_view_t *sv, uint32_t f)
{
    uint32_t s = sv->kt.table[probe(&sv->kt, f)];
    return s ? sv->counts[s - 1] : 0;
}

/* ---- Reader, the one extension type: every read (see native.py).

   Reader(check_key, rule, buffers, params) is built once per sketch; rule
   names the read, and buffers and params hold its arguments:

     "elastic"      (ids, votes, flags, light)
                    (bucket_seed, bucket_count, cells, light_seed, light_size)
     "sketch"       (counters, seeds)
                    (rows, width, count_sketch)
     "spacesaving"  (keys, counts, table)
                    (shift,)

   A buffer is a pair (object, nbytes): the object must export exactly
   nbytes, and None is a NULL pointer (an Elastic sketch without flags or
   light part).  The Reader holds the exports for its life, so a resize of
   a buffer raises BufferError (numpy: ValueError) instead of moving memory
   it reads.

   reader(key) returns one key's estimate, and reader.read_into(keys, out)
   writes the estimate of each uint32 key to out, as uint64 for an Elastic
   sketch and uint32 otherwise.  An exact int key in [0, 2**32) converts
   here; any other key goes to check_key (core.check_key), which returns
   such an int or raises ValueError, so the key rule stays in one place. */

enum { ELASTIC, SKETCH, SPACESAVING, RULES, MAX_PINS = 4, MAX_PARAMS = 5 };

static const char *const rule_names[RULES] = {"elastic", "sketch", "spacesaving"};
static const Py_ssize_t rule_pins[RULES] = {4, 2, 3}, rule_params[RULES] = {5, 3, 1};

typedef struct reader {
    PyObject_HEAD
    vectorcallfunc call;
    uint64_t (*read)(const struct reader *, uint32_t);
    size_t out_size; /* bytes of one estimate in read_into's out */
    PyObject *check_key;
    Py_buffer pins[MAX_PINS];
    int32_t *scratch; /* a Count sketch's rows int32s */
    union {
        elastic_view_t elastic;
        sketch_view_t sketch;
        ss_view_t ss;
    } v;
} reader_t;

static uint64_t read_elastic(const reader_t *r, uint32_t f)
{
    return elastic_query(&r->v.elastic, f);
}

static uint64_t read_sketch(const reader_t *r, uint32_t f)
{
    const sketch_view_t *s = &r->v.sketch;
    return estimate(f, s->counters, s->rows, s->width, s->seeds, s->count_sketch, s->scratch);
}

static uint64_t read_spacesaving(const reader_t *r, uint32_t f)
{
    return spacesaving_query(&r->v.ss, f);
}

/* 1 with *f = k when k is an exact int in [0, 2**32), else 0. */
static int exact_key(PyObject *k, uint32_t *f)
{
    int overflow;
    long long v;
    if (!PyLong_CheckExact(k))
        return 0;
    v = PyLong_AsLongLongAndOverflow(k, &overflow);
    if (overflow || v < 0 || v > UINT32_MAX)
        return 0;
    *f = (uint32_t)v;
    return 1;
}

/* 0 with *f = the flow key k, else -1 with check_key's ValueError set. */
static int flow_key(const reader_t *r, PyObject *k, uint32_t *f)
{
    if (exact_key(k, f))
        return 0;
    PyObject *checked = PyObject_CallOneArg(r->check_key, k);
    if (checked == NULL)
        return -1;
    int ok = exact_key(checked, f);
    Py_DECREF(checked);
    if (!ok)
        PyErr_Format(PyExc_TypeError, "check_key returned no flow key for %R", k);
    return ok ? 0 : -1;
}

static PyObject *reader_call(PyObject *self, PyObject *const *args, size_t nargsf,
                             PyObject *kwnames)
{
    const reader_t *r = (const reader_t *)self;
    uint32_t f;
    if (PyVectorcall_NARGS(nargsf) != 1 || (kwnames && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "a Reader takes one key");
        return NULL;
    }
    if (flow_key(r, args[0], &f) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(r->read(r, f));
}

static PyObject *reader_read_into(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const reader_t *r = (const reader_t *)self;
    Py_buffer keys, out;
    PyObject *done = NULL;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "read_into takes keys and out");
        return NULL;
    }
    if (PyObject_GetBuffer(args[0], &keys, PyBUF_SIMPLE) < 0)
        return NULL;
    if (PyObject_GetBuffer(args[1], &out, PyBUF_WRITABLE) < 0) {
        PyBuffer_Release(&keys);
        return NULL;
    }
    size_t n = (size_t)keys.len / sizeof(uint32_t);
    if (keys.len % sizeof(uint32_t) || (size_t)out.len != n * r->out_size) {
        PyErr_Format(PyExc_ValueError, "read_into: %zd bytes of uint32 keys, %zd bytes of "
                     "out for %zu-byte estimates", keys.len, out.len, r->out_size);
    } else {
        const uint32_t *k = keys.buf;
        if (r->out_size == sizeof(uint64_t))
            for (size_t i = 0; i < n; i++)
                ((uint64_t *)out.buf)[i] = r->read(r, k[i]);
        else
            for (size_t i = 0; i < n; i++)
                ((uint32_t *)out.buf)[i] = (uint32_t)r->read(r, k[i]);
        done = Py_NewRef(Py_None);
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&keys);
    return done;
}

/* 0 with *buf the bytes of the pair (obj, nbytes), exported into *view
   after checking that obj holds exactly nbytes, or NULL for None; else -1
   with an exception set. */
static int pin(PyObject *pair, Py_buffer *view, const void **buf)
{
    PyObject *obj;
    Py_ssize_t nbytes;
    *buf = NULL;
    if (!PyArg_ParseTuple(pair, "On", &obj, &nbytes))
        return -1;
    if (obj == Py_None)
        return 0;
    if (PyObject_GetBuffer(obj, view, PyBUF_SIMPLE) < 0)
        return -1;
    if (view->len != nbytes) {
        PyErr_Format(PyExc_ValueError, "a sketch buffer holds %zd bytes, expected %zd",
                     view->len, nbytes);
        PyBuffer_Release(view);
        return -1;
    }
    *buf = view->buf;
    return 0;
}

static void reader_dealloc(PyObject *self)
{
    reader_t *r = (reader_t *)self;
    for (int i = 0; i < MAX_PINS; i++)
        PyBuffer_Release(&r->pins[i]);
    PyMem_Free(r->scratch);
    Py_XDECREF(r->check_key);
    Py_TYPE(self)->tp_free(self);
}

static PyObject *reader_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"check_key", "rule", "buffers", "params", NULL};
    PyObject *check_key, *buffers, *params;
    const char *name;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OsO!O!:Reader", kwlist, &check_key, &name,
                                     &PyTuple_Type, &buffers, &PyTuple_Type, &params))
        return NULL;
    int rule = 0;
    while (rule < RULES && strcmp(name, rule_names[rule]))
        rule++;
    if (rule == RULES) {
        PyErr_Format(PyExc_ValueError, "no read rule %s", name);
        return NULL;
    }
    if (PyTuple_GET_SIZE(buffers) != rule_pins[rule] ||
        PyTuple_GET_SIZE(params) != rule_params[rule]) {
        PyErr_Format(PyExc_ValueError, "the %s read takes %zd buffers and %zd parameters",
                     name, rule_pins[rule], rule_params[rule]);
        return NULL;
    }
    unsigned long long p[MAX_PARAMS];
    for (Py_ssize_t i = 0; i < rule_params[rule]; i++) {
        p[i] = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(params, i));
        if (p[i] == (unsigned long long)-1 && PyErr_Occurred())
            return NULL;
    }

    reader_t *r = (reader_t *)type->tp_alloc(type, 0);
    if (r == NULL)
        return NULL;
    r->call = reader_call;
    r->check_key = Py_NewRef(check_key);
    const void *b[MAX_PINS];
    for (Py_ssize_t i = 0; i < rule_pins[rule]; i++)
        if (pin(PyTuple_GET_ITEM(buffers, i), &r->pins[i], &b[i]) < 0)
            goto fail;
    r->out_size = sizeof(uint32_t);
    switch (rule) {
    case ELASTIC: {
        elastic_view_t ev = {b[0], b[1], b[2], b[3], p[0], p[1], p[2], p[3], p[4]};
        r->v.elastic = ev;
        r->read = read_elastic;
        r->out_size = sizeof(uint64_t);
        break;
    }
    case SKETCH: {
        r->scratch = PyMem_New(int32_t, p[0]);
        if (r->scratch == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        sketch_view_t sv = {b[0], p[0], p[1], b[1], p[2] != 0, r->scratch};
        r->v.sketch = sv;
        r->read = read_sketch;
        break;
    }
    case SPACESAVING: {
        ss_view_t sv = {keytab((uint32_t *)b[0], NULL, (uint32_t *)b[2], (unsigned)p[0]), b[1]};
        r->v.ss = sv;
        r->read = read_spacesaving;
        break;
    }
    }
    return (PyObject *)r;

fail:
    Py_DECREF(r);
    return NULL;
}

static PyMethodDef reader_methods[] = {
    {"read_into", (PyCFunction)(void (*)(void))reader_read_into, METH_FASTCALL,
     "read_into(keys, out): the estimate of each uint32 key, written to out"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject reader_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "hhsketch.kernels.Reader",
    .tp_basicsize = sizeof(reader_t),
    .tp_dealloc = reader_dealloc,
    .tp_vectorcall_offset = offsetof(reader_t, call),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Reader(check_key, rule, buffers, params): one sketch's query(), "
              "called with one key",
    .tp_methods = reader_methods,
    .tp_new = reader_new,
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "kernels",
    .m_doc = "The native reads of every sketch: one Reader per sketch.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit_kernels(void)
{
    if (PyType_Ready(&reader_type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&kernels_module);
    if (m != NULL && PyModule_AddObjectRef(m, "Reader", (PyObject *)&reader_type) < 0)
        Py_CLEAR(m);
    return m;
}
