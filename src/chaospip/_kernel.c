/* Native kernel of four operations; keystream.py holds the oracle of each.
 *
 * Two loops, one writing key bytes and one counting states into bins
 * (keystream.skip counts into a single bin), must match the pure-Python
 * map, keystream._orbit, bit for bit. That holds only if each iterate is
 * evaluated as t = 1 - x, u = x * t, x = mu * u, each rounded once in
 * binary64: compile with -ffp-contract=off (no fused multiply-add) and
 * never with -ffast-math or reassociation. The other two of the kernel's
 * four operations are integer-only: the cipher's transpose-and-XOR, whose
 * oracle is keystream._py_mask, and a byte histogram, whose oracle is
 * np.bincount.
 *
 * Callers guarantee x in [0, 1], mu in [0, 4] and 0 <= count < 2**63:
 * keystream.KeystreamState holds no other state, and the Python callers
 * refuse larger counts. The map keeps that interval invariant, so x * 256
 * and x * bins stay finite and non-negative and the casts below are defined.
 */

#include <stdint.h>
#include <string.h>

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

/* Converts between native and big-endian order, both ways. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define BE64(v) __builtin_bswap64(v)
#elif defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define BE64(v) (v)
#else
#error "unknown byte order"
#endif

static uint64_t load64(const uint8_t *p)
{
    uint64_t v;
    memcpy(&v, p, 8);
    return v;
}

/* Frame i of n (frame_bytes bytes at data + frame_bytes * i) XOR-ed with the
 * key window at key + stride * i: each full 8-byte block from the frame's
 * start with the window's block bit-transposed (read big-endian, as the
 * oracle reads it), a final partial block with the window as is.
 * The caller sizes key to stride * (n - 1) + frame_bytes and out to
 * n * frame_bytes. */
void chaospip_mask(const uint8_t *key, const uint8_t *data, int64_t n, int64_t frame_bytes,
                   int64_t stride, uint8_t *out)
{
    int64_t full = frame_bytes - frame_bytes % 8;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *k = key + stride * i, *p = data + frame_bytes * i;
        uint8_t *c = out + frame_bytes * i;
        int64_t j = 0;
        for (; j < full; j += 8) {
            uint64_t x = BE64(load64(k + j)), t;
            t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
            x ^= t ^ (t << 7);
            t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
            x ^= t ^ (t << 14);
            t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
            x ^= t ^ (t << 28);
            x = load64(p + j) ^ BE64(x);
            memcpy(c + j, &x, 8);
        }
        for (; j < frame_bytes; j++)
            c[j] = p[j] ^ k[j];
    }
}

/* counts[v] = the number of bytes v in data[0 .. n), for v in 0..255. Four
 * tables, one per byte of each group of four, so that a run of equal bytes
 * does not make every increment wait for the one before it. */
void chaospip_hist(const uint8_t *data, int64_t n, int64_t *counts)
{
    int64_t tables[4][256] = {{0}};
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        tables[0][data[i]]++;
        tables[1][data[i + 1]]++;
        tables[2][data[i + 2]]++;
        tables[3][data[i + 3]]++;
    }
    for (; i < n; i++)
        tables[0][data[i]]++;
    for (int v = 0; v < 256; v++)
        counts[v] = tables[0][v] + tables[1][v] + tables[2][v] + tables[3][v];
}
