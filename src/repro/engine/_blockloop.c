/* Compiled block loops of the "jit" kernel (see kernels.py).
 *
 * Each function executes one precomputed BlockPlan with the same IEEE
 * operations, in the same order, as run_block_fused: per round, gather
 * every active replica's entries, compute the updates, then scatter
 * them.  Built with -ffp-contract=off so no multiply-add is fused and
 * the results are bit-identical to the NumPy kernel.
 *
 * Every function checks all plan indices against the flat state size
 * before its first write and returns -1 (state untouched) if any is out
 * of range, 0 on success.  A NULL old_blk selects plain mode; otherwise
 * old_blk and new_blk receive each round's (old, new) written values,
 * and new_blk doubles as the per-round scratch.
 */
#include <stddef.h>
#include <stdint.h>

static int indices_in_range(const int64_t *idx, int64_t count, int64_t size)
{
    /* Viewed as unsigned, a negative index is huge: one compare per entry. */
    for (int64_t i = 0; i < count; i++) {
        if ((uint64_t)idx[i] >= (uint64_t)size) {
            return 0;
        }
    }
    return 1;
}

/* Packed path: row r of cat is [neighbour_1 | ... | neighbour_k | write],
 * each part `active` wide, with the matching coef [beta/k ... | alpha].
 * new = t_0 + t_1 (+ t_2 ... + t_k), t_p = flat[cat_p] * coef_p. */
int block_cat(double *flat, int64_t size, const int64_t *cat,
              const double *coef, int64_t rounds, int64_t active, int64_t k,
              double *scratch, double *old_blk, double *new_blk)
{
    const int64_t width = (k + 1) * active;
    if (!indices_in_range(cat, rounds * width, size)) {
        return -1;
    }
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
            double acc = flat[row[j]] * coef[j]
                + flat[row[active + j]] * coef[active + j];
            for (int64_t p = 2; p <= k; p++) {
                acc += flat[row[p * active + j]] * coef[p * active + j];
            }
            next[j] = acc;
        }
        for (int64_t j = 0; j < active; j++) {
            flat[write[j]] = next[j];
        }
    }
    return 0;
}

/* Lazy k = 1 path: replica j updates in round r only where keep[r, j];
 * new = alpha * old + beta * flat[gather].  Skipped entries record
 * (0, 0), so their moment increments vanish. */
int block_lazy(double *flat, int64_t size, const int64_t *write_idx,
               const int64_t *gather_idx, const uint8_t *keep, double alpha,
               double beta, int64_t rounds, int64_t active, double *scratch,
               double *old_blk, double *new_blk)
{
    const int64_t count = rounds * active;
    if (!indices_in_range(write_idx, count, size)
        || !indices_in_range(gather_idx, count, size)) {
        return -1;
    }
    for (int64_t r = 0; r < rounds; r++) {
        const int64_t *write = write_idx + r * active;
        const int64_t *gather = gather_idx + r * active;
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
    return 0;
}
