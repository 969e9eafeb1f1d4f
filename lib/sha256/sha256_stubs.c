/* The SHA-256 compression function (FIPS 180-4, section 6.2.2), the kernels
   behind Sha256's streaming interface.

   There are two kernels with one contract. The chaining state is the 32-byte
   big-endian serialisation of H0..H7, which is also the digest once the last
   block is compressed, and a block may start at any offset into an OCaml
   bytes value.

   - [compress_portable] is portable C99: the block and the state are read
     and written byte by byte as big-endian words, so it runs on any host
     and any endianness. It is the reference the other kernel is tested
     and timed against.
   - [compress_sha_ni] uses the x86 SHA extensions (SHA-NI). It is compiled
     only for x86-64 under GCC or Clang, with a per-function target
     attribute, so the rest of the file needs no host-specific flag.

   [caml_sha256_select_kernel] picks one from CPUID. Sha256 calls it once,
   while the library initialises and before any block can be compressed;
   the choice is never made again, so no domain reads it half-set. Every
   other host has only the portable kernel. */

#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_SHA_NI_KERNEL 1
#include <cpuid.h>
#include <immintrin.h>
#endif

static const uint32_t k[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* ---- the portable kernel ---- */

static inline uint32_t load_be(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void store_be(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))
#define BSIG0(x) (ROTR(x, 2) ^ ROTR(x, 13) ^ ROTR(x, 22))
#define BSIG1(x) (ROTR(x, 6) ^ ROTR(x, 11) ^ ROTR(x, 25))
#define SSIG0(x) (ROTR(x, 7) ^ ROTR(x, 18) ^ ((x) >> 3))
#define SSIG1(x) (ROTR(x, 17) ^ ROTR(x, 19) ^ ((x) >> 10))
#define CH(x, y, z) ((z) ^ ((x) & ((y) ^ (z))))
#define MAJ(x, y, z) (((x) & (y)) | ((z) & ((x) | (y))))

/* Round i with the working variables in the roles a..h. It writes only d
   and h; the next round takes the same eight variables one role further
   on, so eight rounds bring every variable back to its own role and no
   round shuffles a..h. */
#define ROUND(a, b, c, d, e, f, g, h, i)                        \
  do {                                                          \
    uint32_t t1 = h + BSIG1(e) + CH(e, f, g) + k[i] + w[i];     \
    d += t1;                                                    \
    h = t1 + BSIG0(a) + MAJ(a, b, c);                           \
  } while (0)

static void compress_portable(unsigned char *st, const unsigned char *p)
{
  uint32_t w[64];
  uint32_t a, b, c, d, e, f, g, h;
  int t;
  for (t = 0; t < 16; t++) w[t] = load_be(p + 4 * t);
  for (t = 16; t < 64; t++)
    w[t] = SSIG1(w[t - 2]) + w[t - 7] + SSIG0(w[t - 15]) + w[t - 16];
  a = load_be(st);
  b = load_be(st + 4);
  c = load_be(st + 8);
  d = load_be(st + 12);
  e = load_be(st + 16);
  f = load_be(st + 20);
  g = load_be(st + 24);
  h = load_be(st + 28);
  for (t = 0; t < 64; t += 8) {
    ROUND(a, b, c, d, e, f, g, h, t);
    ROUND(h, a, b, c, d, e, f, g, t + 1);
    ROUND(g, h, a, b, c, d, e, f, t + 2);
    ROUND(f, g, h, a, b, c, d, e, t + 3);
    ROUND(e, f, g, h, a, b, c, d, t + 4);
    ROUND(d, e, f, g, h, a, b, c, t + 5);
    ROUND(c, d, e, f, g, h, a, b, t + 6);
    ROUND(b, c, d, e, f, g, h, a, t + 7);
  }
  store_be(st, load_be(st) + a);
  store_be(st + 4, load_be(st + 4) + b);
  store_be(st + 8, load_be(st + 8) + c);
  store_be(st + 12, load_be(st + 12) + d);
  store_be(st + 16, load_be(st + 16) + e);
  store_be(st + 20, load_be(st + 20) + f);
  store_be(st + 24, load_be(st + 24) + g);
  store_be(st + 28, load_be(st + 28) + h);
}

/* ---- the SHA-NI kernel ---- */

#ifdef HAVE_SHA_NI_KERNEL

#define SHA_NI __attribute__((target("sha,sse4.1,ssse3")))

/* Four rounds on the message words w = W[4i..4i+3]. sha256rnds2 does two
   rounds on the state split as ABEF and CDGH, taking its two round inputs
   W[t] + K[t] from the low half of its third operand. */
#define ROUNDS4(w, i)                                                      \
  do {                                                                     \
    __m128i wk =                                                           \
      _mm_add_epi32(w, _mm_loadu_si128((const __m128i *)(k + 4 * (i))));   \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                          \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e)); \
  } while (0)

/* The message schedule four words at a time: with m0..m3 holding
   W[t-16..t-1], m0 becomes W[t..t+3]. msg1 adds σ0 of the next words to
   W[t-16..t-13], the alignr supplies W[t-7..t-4], msg2 adds σ1. */
#define SCHEDULE(m0, m1, m2, m3)                                         \
  m0 = _mm_sha256msg2_epu32(                                             \
    _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4)), \
    m3)

SHA_NI static void compress_sha_ni(unsigned char *st, const unsigned char *p)
{
  /* Byte-swaps each 32-bit lane: big-endian words to native ones. */
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i abcd = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)st), bswap);
  __m128i efgh =
    _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(st + 16)), bswap);
  __m128i m0, m1, m2, m3, abef, cdgh, abef0, cdgh0, t;
  int i;
  /* H0..H7 as the instructions want them: lanes F E B A and H G D C. */
  t = _mm_shuffle_epi32(abcd, 0xb1);
  efgh = _mm_shuffle_epi32(efgh, 0x1b);
  abef = _mm_alignr_epi8(t, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, t, 0xf0);
  abef0 = abef;
  cdgh0 = cdgh;
  m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
  m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
  m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
  m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
  ROUNDS4(m0, 0);
  ROUNDS4(m1, 1);
  ROUNDS4(m2, 2);
  ROUNDS4(m3, 3);
  /* Like ROUND above, the four words rotate through m0..m3 by name, so
     no iteration moves a register. */
  for (i = 4; i < 16; i += 4) {
    SCHEDULE(m0, m1, m2, m3);
    ROUNDS4(m0, i);
    SCHEDULE(m1, m2, m3, m0);
    ROUNDS4(m1, i + 1);
    SCHEDULE(m2, m3, m0, m1);
    ROUNDS4(m2, i + 2);
    SCHEDULE(m3, m0, m1, m2);
    ROUNDS4(m3, i + 3);
  }
  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);
  /* Back to A B C D and E F G H, big-endian. */
  t = _mm_shuffle_epi32(abef, 0x1b);
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);
  abcd = _mm_blend_epi16(t, cdgh, 0xf0);
  efgh = _mm_alignr_epi8(cdgh, t, 8);
  _mm_storeu_si128((__m128i *)st, _mm_shuffle_epi8(abcd, bswap));
  _mm_storeu_si128((__m128i *)(st + 16), _mm_shuffle_epi8(efgh, bswap));
}

/* SHA (CPUID leaf 7, EBX bit 29) and the SSE4.1 and SSSE3 shuffles and
   blends the kernel uses around it (leaf 1, ECX bits 19 and 9). */
static int cpu_has_sha_ni(void)
{
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return 0;
  if (!(ecx & (1u << 19)) || !(ecx & (1u << 9))) return 0;
  if (__get_cpuid_max(0, 0) < 7) return 0;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  return (ebx & (1u << 29)) != 0;
}

static int use_sha_ni = 0;

#endif

/* ---- OCaml entry points ---- */

value caml_sha256_select_kernel(value unit)
{
  (void)unit;
#ifdef HAVE_SHA_NI_KERNEL
  use_sha_ni = cpu_has_sha_ni();
  if (use_sha_ni) return caml_copy_string("sha-ni");
#endif
  return caml_copy_string("portable");
}

/* Compress the 64-byte block at [src + off] into [state] with the selected
   kernel. The caller guarantees [off + 64 <= length src] and
   [length state = 32]. */
value caml_sha256_compress(value state, value src, intnat off)
{
#ifdef HAVE_SHA_NI_KERNEL
  if (use_sha_ni) {
    compress_sha_ni(Bytes_val(state), Bytes_val(src) + off);
    return Val_unit;
  }
#endif
  compress_portable(Bytes_val(state), Bytes_val(src) + off);
  return Val_unit;
}

value caml_sha256_compress_byte(value state, value src, value off)
{
  return caml_sha256_compress(state, src, Long_val(off));
}

/* The same, always with the portable kernel. */
value caml_sha256_compress_portable(value state, value src, intnat off)
{
  compress_portable(Bytes_val(state), Bytes_val(src) + off);
  return Val_unit;
}

value caml_sha256_compress_portable_byte(value state, value src, value off)
{
  return caml_sha256_compress_portable(state, src, Long_val(off));
}
