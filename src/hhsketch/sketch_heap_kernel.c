/* The CMHeap and CountHeap insert pass in C (see baselines.py).

   sketch_heap_pass() feeds n keys through a linear sketch of rows x width
   counters and its top-k heap, in place, and returns the heap's new size.
   It runs the scalar _SketchHeapBase.insert() and _TopKHeap.offer() per
   key, and one argument states the sketch:

     count_sketch  0: Count-Min. counters is uint32, every step is +1 and
                   saturates at 2**32 - 1, and the estimate is the row
                   minimum.
                   1: Count sketch. counters is int32, the step is the
                   key's sign hash (+1 when the hash of row rows + r is
                   odd), clamped at +-(2**31 - 1), and the estimate is the
                   upper median over rows of sign * counter, floored at 0;
                   scratch holds rows int32s.

   seeds are the hash rows' seeds (rows, or 2 * rows for a Count sketch): a
   row's index is mix64(seed ^ key) % width, as in core.HashFamily.

   The heap is _TopKHeap's: keys and ests hold its entries by slot, the
   first size of capacity slots in use.  table (a power of two, at least
   2 * capacity entries) maps a key to its slot by linear probing from the
   key's Fibonacci hash, holding slot + 1, or 0 for an empty entry; tix
   holds each slot's table index. */

#include <stddef.h>
#include <stdint.h>

#define CM_MAX UINT32_MAX
#define COUNT_MAX INT32_MAX
#define FIB 0x9E3779B1u

static inline uint64_t mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
}

typedef struct {
    uint32_t *keys, *ests, *tix, *table;
    size_t mask, size, capacity;
    unsigned shift;
} heap_t;

static inline size_t home(const heap_t *h, uint32_t key)
{
    return (uint32_t)(key * FIB) >> h->shift;
}

/* Table index of key's entry, or of the empty entry that ends its probe. */
static inline size_t probe(const heap_t *h, uint32_t key)
{
    size_t t = home(h, key);
    while (h->table[t] && h->keys[h->table[t] - 1] != key)
        t = (t + 1) & h->mask;
    return t;
}

static inline void place(heap_t *h, size_t i, uint32_t key, uint32_t est, uint32_t t)
{
    h->keys[i] = key;
    h->ests[i] = est;
    h->tix[i] = t;
    h->table[t] = (uint32_t)i + 1;
}

/* Empties table entry t by backward shift: a later entry of the cluster
   moves into the hole unless its home lies cyclically in (hole, entry]. */
static void unlink_entry(heap_t *h, size_t t)
{
    for (size_t j = (t + 1) & h->mask; h->table[j]; j = (j + 1) & h->mask) {
        uint32_t s = h->table[j];
        if (((j - home(h, h->keys[s - 1])) & h->mask) >= ((j - t) & h->mask)) {
            h->table[t] = s;
            h->tix[s - 1] = (uint32_t)t;
            t = j;
        }
    }
    h->table[t] = 0;
}

static size_t sift_up(heap_t *h, size_t i)
{
    uint32_t key = h->keys[i], est = h->ests[i], t = h->tix[i];
    while (i > 0) {
        size_t parent = (i - 1) >> 1;
        if (h->ests[parent] <= est)
            break;
        place(h, i, h->keys[parent], h->ests[parent], h->tix[parent]);
        i = parent;
    }
    place(h, i, key, est, t);
    return i;
}

static size_t sift_down(heap_t *h, size_t i)
{
    uint32_t key = h->keys[i], est = h->ests[i], t = h->tix[i];
    for (;;) {
        size_t child = 2 * i + 1;
        if (child >= h->size)
            break;
        if (child + 1 < h->size && h->ests[child + 1] < h->ests[child])
            child++;
        if (h->ests[child] >= est)
            break;
        place(h, i, h->keys[child], h->ests[child], h->tix[child]);
        i = child;
    }
    place(h, i, key, est, t);
    return i;
}

/* _TopKHeap.offer(): update a resident key, push while there is room, or
   replace the minimum when est exceeds it. */
static void offer(heap_t *h, uint32_t key, uint32_t est)
{
    size_t t = probe(h, key);
    if (h->table[t]) {
        size_t i = h->table[t] - 1;
        h->ests[i] = est;
        sift_up(h, sift_down(h, i));
    } else if (h->size < h->capacity) {
        place(h, h->size, key, est, (uint32_t)t);
        sift_up(h, h->size++);
    } else if (est > h->ests[0]) {
        /* the unlink can open a hole on key's probe path, so probe again */
        unlink_entry(h, h->tix[0]);
        place(h, 0, key, est, (uint32_t)probe(h, key));
        sift_down(h, 0);
    }
}

static inline int32_t count_add(int32_t c, int s)
{
    return s > 0 ? c + (c < COUNT_MAX) : c - (c > -COUNT_MAX);
}

/* sorted(v)[rows // 2], floored at 0; sorts v in place */
static uint32_t upper_median(int32_t *v, size_t rows)
{
    for (size_t i = 1; i < rows; i++) {
        int32_t x = v[i];
        size_t j = i;
        for (; j > 0 && v[j - 1] > x; j--)
            v[j] = v[j - 1];
        v[j] = x;
    }
    return v[rows / 2] > 0 ? (uint32_t)v[rows / 2] : 0;
}

size_t sketch_heap_pass(const uint32_t *keys, size_t n, void *counters, size_t rows,
                        uint64_t width, const uint64_t *seeds, int count_sketch,
                        int32_t *scratch, uint32_t *heap_keys, uint32_t *heap_ests,
                        uint32_t *tix, uint32_t *table, size_t table_size, size_t capacity,
                        size_t size)
{
    unsigned bits = 0;
    while (((size_t)1 << bits) < table_size)
        bits++;
    heap_t h = {heap_keys, heap_ests, tix, table, table_size - 1, size, capacity, 32 - bits};

    for (size_t k = 0; k < n; k++) {
        uint32_t f = keys[k];
        uint32_t est;
        if (count_sketch) {
            int32_t *c = counters;
            for (size_t r = 0; r < rows; r++) {
                int32_t *p = c + r * width + mix(seeds[r] ^ f) % width;
                int s = mix(seeds[rows + r] ^ f) & 1 ? 1 : -1;
                *p = count_add(*p, s);
                scratch[r] = s * *p;
            }
            est = upper_median(scratch, rows);
        } else {
            uint32_t *c = counters;
            est = CM_MAX;
            for (size_t r = 0; r < rows; r++) {
                uint32_t *p = c + r * width + mix(seeds[r] ^ f) % width;
                *p += *p < CM_MAX;
                est = *p < est ? *p : est;
            }
        }
        offer(&h, f, est);
    }
    return h.size;
}
