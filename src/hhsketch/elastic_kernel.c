/* The Elastic insert pass in C, for both variants (see elastic.py).

   elastic_pass() feeds n keys through the heavy part in place: ids, votes
   and vote_minus are the sketch's array('I') buffers, flags and light its
   bytearrays.  It runs the same votes-first cell scan as
   _ElasticBucket.insert(), and three arguments state the full-bucket rule:

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
   light part), and 1 when a light add saturated.  mix64() is core.mix64,
   and a row's index is mix64(row_seed ^ key) % range, as in
   core.HashFamily. */

#include <stddef.h>
#include <stdint.h>

#define VOTE_MAX UINT32_MAX
#define LIGHT_MAX 255u
#define AHEAD 8 /* packets whose buckets are hashed and prefetched early */

enum { HIT, EMPTY, FULL };

static inline uint64_t mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
}

/* Exported for the tests; the pass calls mix(), which the compiler can
   inline (an exported function of a shared library cannot be). */
uint64_t mix64(uint64_t x)
{
    return mix(x);
}

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
