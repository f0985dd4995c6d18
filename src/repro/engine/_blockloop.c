/* Compiled block loops of the "jit" kernel (see kernels.py).
 *
 * block_step is the whole block for node k = 1, node k = 2, the edge
 * model and lazy k = 1: it decodes every active replica's selections
 * from the block's uniforms with the same double operations as the
 * NumPy decode (selection.py: draw_node_block, draw_edge_block,
 * split_lazy, SamplingBackend._slots), range-checks every decoded index,
 * and only then runs the rounds.  Every other block (k > 2, lazy k > 1,
 * selection recording) executes a NumPy-built BlockPlan in
 * run_block_fused, the one plan executor.
 *
 * block_step runs the rounds with the same IEEE operations, in the same
 * order, as run_block_fused: per round, gather every active replica's
 * entries, compute the updates, then scatter them.  Built with
 * -ffp-contract=off so no multiply-add is fused and the results are
 * bit-identical to the NumPy kernel.
 *
 * It checks all indices before its first write and returns -1 (state
 * untouched) if any is out of range, 0 on success.  A NULL old_blk
 * selects plain mode; otherwise old_blk and new_blk receive each round's
 * (old, new) written values, and new_blk doubles as the per-round
 * scratch.
 *
 * detect_block is run_until_phi's detection pass over such a recorded
 * block: it folds the per-round moment increments and finds each
 * replica's first round with phi <= epsilon, for every block kernel.
 */
#include <stddef.h>
#include <stdint.h>
#include <time.h>

/* Packed rounds: row r of cat is [neighbour_1 | ... | neighbour_k | write],
 * each part `active` wide.  new = t_0 + t_1 (+ t_2 ... + t_k), with
 * t_p = flat[neighbour_p] * beta_k and t_k = flat[write] * alpha. */
static void execute_cat(double *flat, const int64_t *cat, int64_t rounds,
                        int64_t active, int64_t k, double beta_k,
                        double alpha, double *scratch, double *old_blk,
                        double *new_blk)
{
    const int64_t width = (k + 1) * active;
    for (int64_t r = 0; r < rounds; r++) {
        const int64_t *row = cat + r * width;
        const int64_t *write = row + k * active;
        double *next = old_blk ? new_blk + r * active : scratch;
        if (old_blk) {
            double *old = old_blk + r * active;
            for (int64_t j = 0; j < active; j++) {
                old[j] = flat[write[j]];
            }
        }
        for (int64_t j = 0; j < active; j++) {
            double acc = flat[row[j]] * beta_k
                + flat[row[active + j]] * (k == 1 ? alpha : beta_k);
            for (int64_t p = 2; p <= k; p++) {
                acc += flat[row[p * active + j]] * (p == k ? alpha : beta_k);
            }
            next[j] = acc;
        }
        for (int64_t j = 0; j < active; j++) {
            flat[write[j]] = next[j];
        }
    }
}

/* Lazy k = 1 rounds: replica j updates in round r only where keep[r, j];
 * new = alpha * old + beta * flat[gather].  Round r's write and gather
 * indices start at r * stride.  Skipped entries record (0, 0), so their
 * moment increments vanish. */
static void execute_lazy(double *flat, const int64_t *write_idx,
                         const int64_t *gather_idx, int64_t stride,
                         const uint8_t *keep, double alpha, double beta,
                         int64_t rounds, int64_t active, double *scratch,
                         double *old_blk, double *new_blk)
{
    for (int64_t r = 0; r < rounds; r++) {
        const int64_t *write = write_idx + r * stride;
        const int64_t *gather = gather_idx + r * stride;
        const uint8_t *kept = keep + r * active;
        double *next = old_blk ? new_blk + r * active : scratch;
        for (int64_t j = 0; j < active; j++) {
            if (kept[j]) {
                double old = flat[write[j]];
                next[j] = alpha * old + beta * flat[gather[j]];
                if (old_blk) {
                    old_blk[r * active + j] = old;
                }
            } else if (old_blk) {
                old_blk[r * active + j] = 0.0;
                next[j] = 0.0;
            }
        }
        for (int64_t j = 0; j < active; j++) {
            if (kept[j]) {
                flat[write[j]] = next[j];
            }
        }
    }
}

/* Decode and run one block.
 *
 * flat is the (replicas, n) state; u the block's (rounds, replicas)
 * uniforms, of which the active columns rows[0..active) are read in
 * place (rows NULL: every column).  The sampling source is either the
 * edge list (tails/heads, `edges` entries; k = 1) or, for the node
 * model, a neighbour table: the dense (n, stride) table when offsets is
 * NULL, else the CSR neighbours at offsets[node]; table_size bounds it.
 * degrees holds every node's degree.
 *
 * index receives the decoded flat indices in BlockPlan's packed cat_idx
 * layout, (rounds, (k + 1) * active); keep (lazy only) the coins and weights
 * (record mode, when pi is given) pi of each written node.  stamp, when
 * not NULL, receives the CLOCK_MONOTONIC time at which decoding and the
 * range check ended. */
int block_step(double *flat, int64_t n, int64_t replicas, const double *u,
               const int64_t *rows, int64_t active, int64_t rounds,
               int64_t k, int64_t lazy, const int64_t *table, int64_t stride,
               const int64_t *offsets, int64_t table_size,
               const int64_t *degrees, const int64_t *tails,
               const int64_t *heads, int64_t edges, double alpha,
               double beta_k, const double *pi, int64_t *index,
               uint8_t *keep, double *weights, double *scratch,
               double *old_blk, double *new_blk, double *stamp)
{
    const int64_t width = (k + 1) * active;
    const double scale = tails ? (double)edges : (double)n;
    if ((tails ? !heads : (!table || !degrees)) || (lazy && !keep)
        || (weights && !pi) || (old_blk ? !new_blk : !scratch)
        || k < 1 || k > 2 || (tails && k != 1) || (lazy && k != 1)) {
        return -1;
    }
    for (int64_t r = 0; r < rounds; r++) {
        const double *ur = u + r * replicas;
        int64_t *row = index + r * width;
        for (int64_t j = 0; j < active; j++) {
            const int64_t replica = rows ? rows[j] : j;
            if ((uint64_t)replica >= (uint64_t)replicas) {
                return -1;
            }
            double x = ur[replica];
            if (lazy) {
                /* split_lazy: the leading bit is the coin, 2u mod 1 the
                 * remaining uniform. */
                const double doubled = x * 2.0;
                const uint8_t coin = doubled >= 1.0;
                keep[r * active + j] = coin;
                x = doubled - (double)coin;
            }
            x = x * scale;
            const int64_t pick = (int64_t)x;
            int64_t node, first, second = 0;
            if (tails) {
                if ((uint64_t)pick >= (uint64_t)edges) {
                    return -1;
                }
                node = tails[pick];
                first = heads[pick];
            } else {
                node = pick;
                if ((uint64_t)node >= (uint64_t)n) {
                    return -1;
                }
                x = x - (double)node;
                const int64_t degree = degrees[node];
                int64_t slot, slot2 = 0;
                if (k == 1) {
                    if (degree < 1) {
                        return -1;
                    }
                    slot = (int64_t)(x * (double)degree);
                } else {
                    /* One of the deg * (deg - 1) ordered distinct pairs. */
                    const int64_t degree_m1 = degree - 1;
                    if (degree_m1 < 1) {
                        return -1;
                    }
                    const int64_t pair =
                        (int64_t)(x * (double)(degree * degree_m1));
                    slot = pair / degree_m1;
                    slot2 = pair % degree_m1;
                    slot2 += slot2 >= slot;
                }
                const int64_t base = offsets ? offsets[node] : node * stride;
                if ((uint64_t)base >= (uint64_t)table_size
                    || slot >= table_size - base
                    || slot2 >= table_size - base) {
                    return -1;
                }
                first = table[base + slot];
                if (k == 2) {
                    second = table[base + slot2];
                }
            }
            if ((uint64_t)node >= (uint64_t)n
                || (uint64_t)first >= (uint64_t)n
                || (uint64_t)second >= (uint64_t)n) {
                return -1;
            }
            const int64_t offset = replica * n;
            row[j] = offset + first;
            if (k == 2) {
                row[active + j] = offset + second;
            }
            row[k * active + j] = offset + node;
            if (weights) {
                weights[r * active + j] = pi[node];
            }
        }
    }
    if (stamp) {
        struct timespec now;
        clock_gettime(CLOCK_MONOTONIC, &now);
        *stamp = (double)now.tv_sec + (double)now.tv_nsec * 1e-9;
    }
    if (lazy) {
        execute_lazy(flat, index + active, index, width, keep, alpha, beta_k,
                     rounds, active, scratch, old_blk, new_blk);
    } else {
        execute_cat(flat, index, rounds, active, k, beta_k, alpha, scratch,
                    old_blk, new_blk);
    }
    return 0;
}

/* Convergence detection over one recorded block (run_until_phi).
 *
 * old_blk and new_blk hold the block's (rounds, active) written values;
 * the pi weight of each written entry is weights[r * active + j], or the
 * scalar weight when weights is NULL (then weights_count must be 0,
 * otherwise rounds * active).  Per column, in round order, it folds
 *
 *     d1 = w * (new - old),  d2 = d1 * (new + old)
 *
 * into s1 and s2 (the pre-block moments on entry, the post-block moments
 * on return) with the operations of the NumPy fold: one multiply per
 * increment and one add per round, so the sums are the seeded cumsum's.
 * Among the first `scan` rounds, first[j] receives the first round whose
 * phi = s2 - s1 * s1 is <= epsilon (-1 if none; a NaN phi never counts)
 * and cross1/cross2 the moments just after it.  phi_last receives the
 * last round's max(phi, 0).  Returns -1 on a NULL buffer or inconsistent
 * sizes (nothing written), 0 on success. */
int detect_block(const double *old_blk, const double *new_blk,
                 int64_t rounds, int64_t active, const double *weights,
                 int64_t weights_count, double weight, int64_t scan,
                 double epsilon, double *s1, double *s2, int64_t *first,
                 double *cross1, double *cross2, double *phi_last)
{
    if (!old_blk || !new_blk || !s1 || !s2 || !first || !cross1 || !cross2
        || !phi_last || rounds < 1 || active < 0 || scan < 0 || scan > rounds
        || weights_count != (weights ? rounds * active : 0)) {
        return -1;
    }
    for (int64_t j = 0; j < active; j++) {
        first[j] = -1;
    }
    for (int64_t r = 0; r < rounds; r++) {
        const double *before = old_blk + r * active;
        const double *after = new_blk + r * active;
        const double *w = weights ? weights + r * active : NULL;
        const int scanned = r < scan;
        for (int64_t j = 0; j < active; j++) {
            const double d1 = (w ? w[j] : weight) * (after[j] - before[j]);
            const double d2 = d1 * (after[j] + before[j]);
            const double m1 = s1[j] + d1;
            const double m2 = s2[j] + d2;
            s1[j] = m1;
            s2[j] = m2;
            if (scanned && first[j] < 0 && m2 - m1 * m1 <= epsilon) {
                first[j] = r;
                cross1[j] = m1;
                cross2[j] = m2;
            }
        }
    }
    for (int64_t j = 0; j < active; j++) {
        const double phi = s2[j] - s1[j] * s1[j];
        phi_last[j] = phi < 0.0 ? 0.0 : phi;
    }
    return 0;
}
