/* The SpaceSaving insert pass in C (see baselines.py).

   spacesaving_pass() feeds n keys through a Space-Saving table in place and
   returns its new size. It runs the scalar SpaceSaving.insert() per key
   over the same arrays:

     keys, counts and errors hold the monitored flows by slot, the first
     size of capacity slots in use, as a min-heap on (count, key), compared
     as count << 32 | key: keys are distinct, so the order has no ties.
     table (a power of two, at least 2 * capacity entries) maps a key to its
     slot by linear probing from the key's Fibonacci hash, holding slot + 1,
     or 0 for an empty entry; tix holds each slot's table index.

   A hit adds 1 to the flow's count and sifts it down; a new flow is pushed
   with count 1 and error 0 while there is room; otherwise it takes the
   root's slot with count c0 + 1 and error c0, where c0 is the root's count,
   and sifts down. Counts saturate at 2**32 - 1. */

#include <stddef.h>
#include <stdint.h>

#define FIB 0x9E3779B1u

typedef struct {
    uint32_t *keys, *counts, *errors, *tix, *table;
    size_t mask, size;
    unsigned shift;
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

static inline size_t home(const ss_t *s, uint32_t key)
{
    return (uint32_t)(key * FIB) >> s->shift;
}

/* Table index of key's entry, or of the empty entry that ends its probe. */
static inline size_t probe(const ss_t *s, uint32_t key)
{
    size_t t = home(s, key);
    while (s->table[t] && s->keys[s->table[t] - 1] != key)
        t = (t + 1) & s->mask;
    return t;
}

/* Empties table entry t by backward shift: a later entry of the cluster
   moves into the hole unless its home lies cyclically in (hole, entry]. */
static void unlink_entry(ss_t *s, size_t t)
{
    for (size_t j = (t + 1) & s->mask; s->table[j]; j = (j + 1) & s->mask) {
        uint32_t slot = s->table[j];
        if (((j - home(s, s->keys[slot - 1])) & s->mask) >= ((j - t) & s->mask)) {
            s->table[t] = slot;
            s->tix[slot - 1] = (uint32_t)t;
            t = j;
        }
    }
    s->table[t] = 0;
}

static inline void put(ss_t *s, size_t i, uint32_t key, uint32_t count, uint32_t error,
                       uint32_t t)
{
    s->keys[i] = key;
    s->counts[i] = count;
    s->errors[i] = error;
    s->tix[i] = t;
    s->table[t] = (uint32_t)i + 1;
}

/* Places the entry at the hole i or above it, moving larger parents down. */
static void sift_up(ss_t *s, size_t i, uint32_t key, uint32_t count, uint32_t error,
                    uint32_t t)
{
    uint64_t r = rank(count, key);
    while (i > 0) {
        size_t p = (i - 1) >> 1;
        if (rank(s->counts[p], s->keys[p]) < r)
            break;
        put(s, i, s->keys[p], s->counts[p], s->errors[p], s->tix[p]);
        i = p;
    }
    put(s, i, key, count, error, t);
}

/* Places the entry at the hole i or below it, moving smaller children up. */
static void sift_down(ss_t *s, size_t i, uint32_t key, uint32_t count, uint32_t error,
                      uint32_t t)
{
    uint64_t r = rank(count, key);
    for (;;) {
        size_t child = 2 * i + 1;
        if (child >= s->size)
            break;
        uint64_t rc = rank(s->counts[child], s->keys[child]);
        if (child + 1 < s->size) {
            uint64_t r2 = rank(s->counts[child + 1], s->keys[child + 1]);
            if (r2 < rc) {
                child++;
                rc = r2;
            }
        }
        if (rc > r)
            break;
        put(s, i, s->keys[child], s->counts[child], s->errors[child], s->tix[child]);
        i = child;
    }
    put(s, i, key, count, error, t);
}

size_t spacesaving_pass(const uint32_t *keys, size_t n, uint32_t *ss_keys, uint32_t *counts,
                        uint32_t *errors, uint32_t *tix, uint32_t *table, size_t table_size,
                        size_t capacity, size_t size)
{
    unsigned bits = 0;
    while (((size_t)1 << bits) < table_size)
        bits++;
    ss_t s = {ss_keys, counts, errors, tix, table, table_size - 1, size, 32 - bits};

    for (size_t k = 0; k < n; k++) {
        uint32_t f = keys[k];
        size_t t = probe(&s, f);
        if (table[t]) {
            size_t i = table[t] - 1;
            sift_down(&s, i, f, bump(counts[i]), errors[i], (uint32_t)t);
        } else if (s.size < capacity) {
            sift_up(&s, s.size++, f, 1, 0, (uint32_t)t);
        } else {
            /* the unlink can open a hole on f's probe path, so probe again */
            uint32_t c0 = counts[0];
            unlink_entry(&s, tix[0]);
            sift_down(&s, 0, f, bump(c0), c0, (uint32_t)probe(&s, f));
        }
    }
    return s.size;
}
