/* Native logistic-map kernel; keystream._orbit is its oracle.
 *
 * Two loops, one writing key bytes and one counting states into bins
 * (keystream.skip counts into a single bin), must match the pure-Python
 * kernel in keystream.py bit for bit. That holds only if each iterate is
 * evaluated as t = 1 - x, u = x * t, x = mu * u, each rounded once in
 * binary64: compile with -ffp-contract=off (no fused multiply-add) and
 * never with -ffast-math or reassociation.
 *
 * Callers guarantee x in [0, 1], mu in [0, 4] and 0 <= count < 2**63:
 * keystream.KeystreamState holds no other state, and the Python callers
 * refuse larger counts. The map keeps that interval invariant, so x * 256
 * and x * bins stay finite and non-negative and the casts below are defined.
 */

#include <stdint.h>

#define STEP(x, mu) do { double t = 1.0 - (x); double u = (x) * t; (x) = (mu) * u; } while (0)

/* out[i] = min(floor(x_i * 256), 255) ^ ((low + i) & 0xFF), x_i the fresh state. */
double chaospip_bytes(double x, double mu, int64_t low, int64_t count, uint8_t *out)
{
    for (int64_t i = 0; i < count; i++) {
        STEP(x, mu);
        int64_t b = (int64_t)(x * 256.0);
        out[i] = (uint8_t)((b < 255 ? b : 255) ^ ((low + i) & 0xFF));
    }
    return x;
}

/* counts[min(floor(x_i * bins), bins - 1)] += 1 for each fresh state x_i; bins >= 1. */
double chaospip_bins(double x, double mu, int64_t count, int64_t bins, int64_t *counts)
{
    double scale = (double)bins;
    for (int64_t i = 0; i < count; i++) {
        STEP(x, mu);
        int64_t b = (int64_t)(x * scale);
        counts[b < bins - 1 ? b : bins - 1] += 1;
    }
    return x;
}
