/**
 * @file
 * Checksum primitives for the end-to-end integrity layer: CRC32C
 * (the polynomial PCIe ECRC and iSCSI use) for per-transfer and
 * per-frame checks, and CRC16 with the T10-DIF polynomial for the
 * per-sector guard tags the block path carries. Real DMA engines
 * and HBAs compute these at line rate, and the simulator checks
 * every payload it moves, so the kernels are fast and return
 * exactly the bit-serial values: CRC32C uses the SSE4.2 `crc32`
 * instruction when CPUID reports it (chosen once at run time) and a
 * slice-by-8 table otherwise; CRC16 uses a slice-by-8 table. The
 * bodies live in checksum.cc so no caller sees the intrinsics.
 */

#ifndef BMHIVE_BASE_CHECKSUM_HH
#define BMHIVE_BASE_CHECKSUM_HH

#include <cstddef>
#include <cstdint>

namespace bmhive {

/** CRC32C (Castagnoli, reflected 0x82F63B78), seedable so checks
 *  over split buffers can chain: crc32c(b, n, crc32c(a, m)). */
std::uint32_t crc32c(const std::uint8_t *data, std::size_t len,
                     std::uint32_t seed = 0);

/** The slice-by-8 table path crc32c() takes on CPUs without SSE4.2;
 *  same values. Exposed so tests check it on machines that have the
 *  instruction too. */
std::uint32_t crc32cPortable(const std::uint8_t *data, std::size_t len,
                             std::uint32_t seed = 0);

/** Fold one 64-bit word into a running CRC32C (for checksumming
 *  structured records field by field without staging a buffer). */
inline std::uint32_t
crc32cWord(std::uint64_t word, std::uint32_t seed = 0)
{
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = std::uint8_t(word >> (8 * i));
    return crc32c(bytes, sizeof(bytes), seed);
}

/** CRC16 with the T10-DIF polynomial 0x8BB7 (non-reflected, zero
 *  seed): the guard tag of one 512-byte protection-interval. */
std::uint16_t crc16T10dif(const std::uint8_t *data, std::size_t len);

} // namespace bmhive

#endif // BMHIVE_BASE_CHECKSUM_HH
