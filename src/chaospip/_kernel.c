/* Native kernel of four operations; keystream.py holds the oracle of each.
 *
 * Two loops, one writing key bytes and one counting states into bins
 * (keystream.skip counts into a single bin), must match the pure-Python
 * map, keystream._orbit, bit for bit. That holds only if each iterate is
 * evaluated as t = 1 - x, u = x * t, x = mu * u, each rounded once in
 * binary64: compile with -ffp-contract=off (no fused multiply-add) and
 * never with -ffast-math or reassociation. The third, the cipher's
 * transpose-and-XOR, is integer-only; its oracle is keystream._py_mask.
 * It reads key blocks as little-endian words, in which the cipher's
 * transpose is a flip about the anti-diagonal, and works two blocks per
 * step in GCC's 16-byte vector lanes (SSE2 on x86-64, with no extra
 * flag); a big-endian host swaps at load and store, and an unknown byte
 * order fails the build. The fourth serves all byte-plane analysis
 * (analysis.compare_frames and analysis.corr2d): the sums and centred
 * second moments of two byte planes, and the counts of both planes' byte
 * values, from one sum pass and one pairwise pass. The moments follow
 * numpy's pairwise summation order with every difference and product
 * rounded once, so they need the same flags as the map. Its oracle,
 * keystream._py_moments, is numpy's own sum of float64 copies and
 * np.bincount, and this file's pairwise() is the only copy of numpy's
 * split: a numpy release that sums in another order makes the load probe
 * fall back to the oracle.
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

/* Converts between native and little-endian order, both ways, for one word
 * and for each lane of a pair. */
typedef uint64_t u64x2 __attribute__((vector_size(16)));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define LE64(v) (v)
#define LE64X2(v) (v)
#elif defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define LE64(v) __builtin_bswap64(v)
#define LE64X2(v) ((u64x2){__builtin_bswap64((v)[0]), __builtin_bswap64((v)[1])})
#else
#error "unknown byte order"
#endif

static uint64_t load64(const uint8_t *p)
{
    uint64_t v;
    memcpy(&v, p, 8);
    return v;
}

/* The cipher's T of a block held as a little-endian word x (a uint64_t or
 * each lane of a u64x2), t a scratch of the same type. Pixel i is byte i
 * from the low end and bit j of a pixel (j = 0 the most significant) sits
 * at 8 * i + 7 - j, so the transpose (i, j) -> (j, i) moves the bit at
 * 8 * r + c to 8 * (7 - c) + (7 - r): the flip about the anti-diagonal,
 * three masked swaps of 4x4, 2x2 and 1x1 sub-blocks (Hacker's Delight,
 * 2nd ed., section 7-3). */
#define FLIP(x, t) do { \
        t = (x) ^ ((x) << 36); \
        (x) ^= 0xF0F0F0F00F0F0F0Full & (t ^ ((x) >> 36)); \
        t = 0xCCCC0000CCCC0000ull & ((x) ^ ((x) << 18)); \
        (x) ^= t ^ (t >> 18); \
        t = 0xAA00AA00AA00AA00ull & ((x) ^ ((x) << 9)); \
        (x) ^= t ^ (t >> 9); \
    } while (0)

/* Frame i of n (frame_bytes bytes at data + frame_bytes * i) XOR-ed with the
 * key window at key + stride * i: each full 8-byte block from the frame's
 * start with the window's block bit-transposed, two blocks per step and an
 * odd one alone, a final partial block with the window as is.
 * Key holds stride * (n - 1) + frame_bytes bytes (keystream._windows, in
 * Python ints) and out n * frame_bytes. */
void chaospip_mask(const uint8_t *key, const uint8_t *data, int64_t n, int64_t frame_bytes,
                   int64_t stride, uint8_t *out)
{
    int64_t full = frame_bytes - frame_bytes % 8;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *k = key + stride * i, *p = data + frame_bytes * i;
        uint8_t *c = out + frame_bytes * i;
        int64_t j = 0;
        for (; j + 16 <= full; j += 16) {
            u64x2 x, d, t;
            memcpy(&x, k + j, 16);
            memcpy(&d, p + j, 16);
            x = LE64X2(x);
            FLIP(x, t);
            x = d ^ LE64X2(x);
            memcpy(c + j, &x, 16);
        }
        if (j < full) {
            uint64_t x = LE64(load64(k + j)), t;
            FLIP(x, t);
            x = load64(p + j) ^ LE64(x);
            memcpy(c + j, &x, 8);
            j += 8;
        }
        for (; j < frame_bytes; j++)
            c[j] = p[j] ^ k[j];
    }
}

/* Two lanes of binary64. Each lane of an operation on it rounds exactly as
 * the scalar operation does, so a pair of lanes is two accumulators of
 * numpy's loop, not a reassociation. */
typedef double f64x2 __attribute__((vector_size(16)));

/* Four tables of byte counts, taken in turn by consecutive bytes, so that a
 * run of equal bytes does not make every increment wait for the one before
 * it. int64 entries cannot overflow: a plane holds fewer than 2**45 bytes. */
typedef int64_t tables4[4][256];

/* Sums of dx^2, dy^2 and dx*dy over elements [0, n), n <= 128, with dx and
 * dy the tabled deviations dx = d[0][a[i]] and dy = d[1][b[i]], in the order
 * of numpy's pairwise_sum below its blocksize (loops_utils.h.src): below 8
 * terms sequentially from 0.0; else in eight accumulators r0..r7 seeded
 * with the first eight, folded as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
 * then the tail sequentially. Each byte of a is also counted into c[0]
 * and each byte of b into c[1] as it is read. */
static void leaf(const uint8_t *a, const uint8_t *b, int64_t n, const double (*d)[256],
                 tables4 *c, double s[3])
{
    const double *da = d[0], *db = d[1];
    double xx = 0.0, yy = 0.0, xy = 0.0;
    int64_t i = 0;
    if (n >= 8) {
        /* Lane j of xx_k is numpy's accumulator r[2k + j], and so on; its
         * bytes are counted into table (2k + j) % 4. */
        f64x2 xx0, xx1, xx2, xx3, yy0, yy1, yy2, yy3, xy0, xy1, xy2, xy3;
#define TERMS(k, j, op) do { \
            uint8_t a0 = a[(j)], a1 = a[(j) + 1], b0 = b[(j)], b1 = b[(j) + 1]; \
            f64x2 x = {da[a0], da[a1]}, y = {db[b0], db[b1]}; \
            xx##k op x * x; \
            yy##k op y * y; \
            xy##k op x * y; \
            c[0][2 * (k) % 4][a0]++; \
            c[0][2 * (k) % 4 + 1][a1]++; \
            c[1][2 * (k) % 4][b0]++; \
            c[1][2 * (k) % 4 + 1][b1]++; \
        } while (0)
        TERMS(0, 0, =);
        TERMS(1, 2, =);
        TERMS(2, 4, =);
        TERMS(3, 6, =);
        for (i = 8; i < n - n % 8; i += 8) {
            TERMS(0, i, +=);
            TERMS(1, i + 2, +=);
            TERMS(2, i + 4, +=);
            TERMS(3, i + 6, +=);
        }
#undef TERMS
#define FOLD(r) (((r##0[0] + r##0[1]) + (r##1[0] + r##1[1])) + ((r##2[0] + r##2[1]) + (r##3[0] + r##3[1])))
        xx = FOLD(xx);
        yy = FOLD(yy);
        xy = FOLD(xy);
#undef FOLD
    }
    for (; i < n; i++) {
        double x = da[a[i]], y = db[b[i]];
        xx += x * x;
        yy += y * y;
        xy += x * y;
        c[0][0][a[i]]++;
        c[1][0][b[i]]++;
    }
    s[0] = xx;
    s[1] = yy;
    s[2] = xy;
}

/* The same sums over [0, n) in the tree of numpy's pairwise_sum: up to
 * 128 terms as above; above that, the first n/2 - (n/2)%8 terms and the
 * rest, each summed the same way, and added. Each byte is counted as in
 * leaf(). */
static void pairwise(const uint8_t *a, const uint8_t *b, int64_t n, const double (*d)[256],
                     tables4 *c, double s[3])
{
    if (n > 128) {
        int64_t half = n / 2;
        double left[3], right[3];
        half -= half % 8;
        pairwise(a, b, half, d, c, left);
        pairwise(a + half, b + half, n - half, d, c, right);
        for (int k = 0; k < 3; k++)
            s[k] = left[k] + right[k];
        return;
    }
    leaf(a, b, n, d, c, s);
}

/* out = {sa, sb, sxx, syy, sxy} of the n bytes of a and of b, with
 * 1 <= n < 2**45 so that every sum below is exact in binary64: the sums sa
 * and sb, the means ma = sa / n and mb = sb / n, then the pairwise sums of
 * (a_i - ma)^2, (b_i - mb)^2 and (a_i - ma)(b_i - mb), each difference and
 * product rounded once, plus 0.0. That is bit for bit what numpy's
 * add.reduce gives on the float64 arrays of those terms, which starts from
 * its identity 0.0 (turning a sum of -0.0 into 0.0). The pairwise pass
 * also counts each byte value v of a into counts[v] and of b into
 * counts[256 + v], so a plane pair is read twice for its sums, moments and
 * both histograms. */
void chaospip_moments(const uint8_t *a, const uint8_t *b, int64_t n, double *out, int64_t *counts)
{
    /* Blocks whose sums fit 32 bits, with a constant trip count, are what
     * gcc -O2 vectorizes here: about 2.5x faster than one int64 loop. */
    int64_t sa = 0, sb = 0, i = 0;
    for (; i + 4096 <= n; i += 4096) {
        uint32_t ta = 0, tb = 0;
        for (int j = 0; j < 4096; j++) {
            ta += a[i + j];
            tb += b[i + j];
        }
        sa += ta;
        sb += tb;
    }
    for (; i < n; i++) {
        sa += a[i];
        sb += b[i];
    }
    double ma = (double)sa / (double)n, mb = (double)sb / (double)n;
    double d[2][256], s[3];
    for (int v = 0; v < 256; v++) {
        d[0][v] = (double)v - ma;
        d[1][v] = (double)v - mb;
    }
    tables4 c[2] = {{{0}}};
    pairwise(a, b, n, d, c, s);
    for (int p = 0; p < 2; p++)
        for (int v = 0; v < 256; v++)
            counts[256 * p + v] = c[p][0][v] + c[p][1][v] + c[p][2][v] + c[p][3][v];
    out[0] = (double)sa;
    out[1] = (double)sb;
    for (int k = 0; k < 3; k++)
        out[2 + k] = 0.0 + s[k];
}
