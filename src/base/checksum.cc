#include "base/checksum.hh"

#include <array>
#include <cstring>

#ifdef __x86_64__
#include <nmmintrin.h>
#endif

namespace bmhive {

namespace {

// Slice-by-8 tables: entry [k][b] is the CRC of byte b followed by
// k zero bytes, so one 8-byte step is eight independent lookups.

constexpr auto crc32cTable = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t crc = b;
        for (int i = 0; i < 8; ++i)
            crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
        t[0][b] = crc;
    }
    for (int k = 1; k < 8; ++k)
        for (int b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    return t;
}();

constexpr auto crc16Table = [] {
    std::array<std::array<std::uint16_t, 256>, 8> t{};
    for (unsigned b = 0; b < 256; ++b) {
        std::uint16_t crc = std::uint16_t(b << 8);
        for (int i = 0; i < 8; ++i) {
            crc = std::uint16_t(
                (crc << 1) ^ ((crc & 0x8000u) ? 0x8BB7u : 0u));
        }
        t[0][b] = crc;
    }
    for (int k = 1; k < 8; ++k)
        for (int b = 0; b < 256; ++b)
            t[k][b] = std::uint16_t((t[k - 1][b] << 8) ^
                                    t[0][t[k - 1][b] >> 8]);
    return t;
}();

#ifdef __x86_64__
// Compiled for SSE4.2 without raising the whole build's baseline;
// only ever called after CPUID says the instruction exists.
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const std::uint8_t *p, std::size_t len, std::uint32_t seed)
{
    std::uint64_t crc = ~seed;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, sizeof(word));
        crc = _mm_crc32_u64(crc, word);
    }
    auto c = std::uint32_t(crc);
    for (; len; ++p, --len)
        c = _mm_crc32_u8(c, *p);
    return ~c;
}
#endif

using Crc32cFn = std::uint32_t (*)(const std::uint8_t *, std::size_t,
                                   std::uint32_t);

Crc32cFn
pickCrc32c()
{
#ifdef __x86_64__
    // May run from another translation unit's static constructor,
    // before the runtime has probed the CPU.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
        return crc32cSse42;
#endif
    return crc32cPortable;
}

} // namespace

std::uint32_t
crc32c(const std::uint8_t *data, std::size_t len, std::uint32_t seed)
{
    static const Crc32cFn impl = pickCrc32c();
    return impl(data, len, seed);
}

std::uint32_t
crc32cPortable(const std::uint8_t *p, std::size_t len, std::uint32_t seed)
{
    const auto &t = crc32cTable;
    std::uint32_t crc = ~seed;
    for (; len >= 8; p += 8, len -= 8) {
        crc = t[7][(crc ^ p[0]) & 0xFF] ^
              t[6][((crc >> 8) ^ p[1]) & 0xFF] ^
              t[5][((crc >> 16) ^ p[2]) & 0xFF] ^
              t[4][(crc >> 24) ^ p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^
              t[1][p[6]] ^ t[0][p[7]];
    }
    for (; len; ++p, --len)
        crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
    return ~crc;
}

std::uint16_t
crc16T10dif(const std::uint8_t *p, std::size_t len)
{
    const auto &t = crc16Table;
    std::uint16_t crc = 0;
    for (; len >= 8; p += 8, len -= 8) {
        crc = std::uint16_t(t[7][p[0] ^ (crc >> 8)] ^
                            t[6][p[1] ^ (crc & 0xFF)] ^ t[5][p[2]] ^
                            t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^
                            t[1][p[6]] ^ t[0][p[7]]);
    }
    for (; len; ++p, --len)
        crc = std::uint16_t((crc << 8) ^ t[0][(crc >> 8) ^ *p]);
    return crc;
}

} // namespace bmhive
