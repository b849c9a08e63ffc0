#include "trace/TraceIO.h"

#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "robust/Errors.h"
#include "util/Logging.h"

namespace csr
{

namespace
{

constexpr char kMagic[4] = {'C', 'S', 'R', 'T'};
constexpr std::uint32_t kVersion = 1;

/** Header: magic + version + count; each record: addr + meta. */
constexpr std::uint64_t kHeaderBytes = 4 + 8 + 8;
constexpr std::uint64_t kRecordBytes = 8 + 4;

/** Cap on the up-front reservation for the declared record count: a
 *  corrupt header must not be able to demand an absurd allocation.
 *  Larger (honest) traces grow past this normally. */
constexpr std::uint64_t kMaxReserveRecords = 1u << 20;

void
put64(std::ostream &os, std::uint64_t v)
{
    std::array<unsigned char, 8> buf;
    for (int i = 0; i < 8; ++i)
        buf[static_cast<std::size_t>(i)] =
            static_cast<unsigned char>(v >> (8 * i));
    os.write(reinterpret_cast<const char *>(buf.data()), 8);
}

/** Read 8 little-endian bytes at @p offset; TraceFormatError naming
 *  the offset when the stream cannot deliver them. */
std::uint64_t
get64(std::istream &is, std::uint64_t offset, const char *what)
{
    std::array<unsigned char, 8> buf;
    is.read(reinterpret_cast<char *>(buf.data()), 8);
    if (!is || is.gcount() != 8)
        throw TraceFormatError(std::string("truncated trace: ") + what,
                               offset);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf[static_cast<std::size_t>(i)])
             << (8 * i);
    return v;
}

} // namespace

std::uint64_t
writeTraceBinary(std::ostream &os, const std::vector<TraceRecord> &records)
{
    os.write(kMagic, 4);
    put64(os, kVersion);
    put64(os, records.size());
    for (const auto &rec : records) {
        put64(os, rec.addr);
        const std::uint32_t meta =
            static_cast<std::uint32_t>(rec.proc) |
            (rec.write ? 0x10000u : 0u);
        std::array<unsigned char, 4> buf;
        for (int i = 0; i < 4; ++i)
            buf[static_cast<std::size_t>(i)] =
                static_cast<unsigned char>(meta >> (8 * i));
        os.write(reinterpret_cast<const char *>(buf.data()), 4);
    }
    return kHeaderBytes + records.size() * kRecordBytes;
}

std::vector<TraceRecord>
readTraceBinary(std::istream &is)
{
    char magic[4];
    is.read(magic, 4);
    if (!is || is.gcount() != 4 ||
        std::memcmp(magic, kMagic, 4) != 0)
        throw TraceFormatError("not a CSRT binary trace", 0);
    const std::uint64_t version = get64(is, 4, "version field");
    if (version != kVersion)
        throw TraceFormatError(
            "unsupported trace version " + std::to_string(version), 4);
    const std::uint64_t count = get64(is, 12, "record count");

    std::vector<TraceRecord> records;
    // Trusting a corrupt count here would hand an attacker-sized
    // allocation to reserve(); cap it and let honest traces grow.
    records.reserve(static_cast<std::size_t>(
        count < kMaxReserveRecords ? count : kMaxReserveRecords));
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t offset = kHeaderBytes + i * kRecordBytes;
        TraceRecord rec;
        rec.addr = get64(is, offset,
                         "address of a declared record");
        std::array<unsigned char, 4> buf;
        is.read(reinterpret_cast<char *>(buf.data()), 4);
        if (!is || is.gcount() != 4)
            throw TraceFormatError(
                "truncated trace at record " + std::to_string(i) +
                    " of " + std::to_string(count),
                offset + 8);
        std::uint32_t meta = 0;
        for (int b = 0; b < 4; ++b)
            meta |= static_cast<std::uint32_t>(
                        buf[static_cast<std::size_t>(b)])
                    << (8 * b);
        if (meta & ~0x1FFFFu)
            throw TraceFormatError(
                "record " + std::to_string(i) +
                    " has reserved meta bits set",
                offset + 8);
        rec.proc = static_cast<std::uint16_t>(meta & 0xFFFF);
        rec.write = (meta & 0x10000u) != 0;
        records.push_back(rec);
    }
    return records;
}

void
writeTraceText(std::ostream &os, const std::vector<TraceRecord> &records)
{
    for (const auto &rec : records) {
        os << (rec.write ? 'W' : 'R') << ' ' << rec.proc << ' ' << std::hex
           << rec.addr << std::dec << '\n';
    }
}

std::vector<TraceRecord>
readTraceText(std::istream &is)
{
    std::vector<TraceRecord> records;
    std::string line;
    std::uint64_t lineno = 0;
    std::uint64_t offset = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const std::uint64_t line_offset = offset;
        offset += line.size() + 1;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        char type = 0;
        std::uint32_t proc = 0;
        Addr addr = 0;
        ls >> type >> proc >> std::hex >> addr;
        if (!ls || (type != 'R' && type != 'W'))
            throw TraceFormatError(
                "malformed trace line " + std::to_string(lineno) +
                    ": '" + line + "'",
                line_offset);
        if (proc > 0xFFFF)
            throw TraceFormatError(
                "trace line " + std::to_string(lineno) +
                    ": processor id " + std::to_string(proc) +
                    " out of range",
                line_offset);
        records.push_back({addr, static_cast<std::uint16_t>(proc),
                           type == 'W'});
    }
    return records;
}

void
saveTrace(const std::string &path, const std::vector<TraceRecord> &records)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw ConfigError("cannot open '" + path + "' for writing");
    writeTraceBinary(os, records);
    if (!os)
        throw ConfigError("write failure on '" + path + "'");
}

std::vector<TraceRecord>
loadTrace(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw ConfigError("cannot open '" + path + "' for reading");
    return readTraceBinary(is);
}

} // namespace csr
