/* The SHA-256 compression function (FIPS 180-4, section 6.2.2), the one
   kernel behind Sha256's streaming interface.

   Portable C99: the block and the chaining state are read and written byte
   by byte as big-endian words, so the result is the same on any host
   endianness and at any offset into an OCaml bytes value. The chaining state
   is the 32-byte big-endian serialisation of H0..H7, which is also the
   digest once the last block is compressed. */

#include <stdint.h>
#include <caml/mlvalues.h>

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

/* Compress the 64-byte block at [src + off] into [state]. The caller
   guarantees [off + 64 <= length src] and [length state = 32]. */
value caml_sha256_compress(value state, value src, intnat off)
{
  unsigned char *st = Bytes_val(state);
  const unsigned char *p = Bytes_val(src) + off;
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
  return Val_unit;
}

value caml_sha256_compress_byte(value state, value src, value off)
{
  return caml_sha256_compress(state, src, Long_val(off));
}
