#include "core/chunk.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <string_view>

#include <unistd.h>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/json.hpp"

namespace pimsim::core {
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kNpos = std::string_view::npos;

/// Every chunk and manifest defect: an InvalidArgument naming the file
/// and what is wrong with it.  Callers test before calling, so a message
/// is only built for a defect that is really there.
[[noreturn]] void defect(std::string_view file, std::string_view what) {
  std::string message = "pimsim merge: '";
  message.append(file).append("': ").append(what);
  throw InvalidArgument(message);
}

/// The whole file in one sized read.
std::string slurp(const fs::path& path, const char* what) {
  std::error_code error;
  const std::uintmax_t size = fs::file_size(path, error);  // fails on a dir
  std::ifstream in(path, std::ios::binary);
  if (error || !in) {
    throw InvalidArgument(std::string("pimsim: cannot read ") + what + " '" +
                          path.string() + "'");
  }
  std::string bytes(size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uintmax_t>(in.gcount()) != size) {
    defect(path.string(), "short read");
  }
  return bytes;
}

/// Writes a file atomically: `write(stream)` fills a temp file (unique
/// per process, so concurrent shard writers never interleave) that is
/// then renamed into place.
template <class Write>
void atomic_write(const fs::path& path, Write&& write) {
  const fs::path tmp =
      path.string() + ".tmp-" + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary);
    require(out.good(),
            "pimsim: cannot write chunk file '" + tmp.string() + "'");
    write(out);
    require(out.good(),
            "pimsim: short write to chunk file '" + tmp.string() + "'");
  }
  fs::rename(tmp, path);  // POSIX rename: atomic replace
}

// --- text building: one std::string, numbers through std::to_chars -------

/// A fingerprint as the "0x<hex>" string both writers store (JSON numbers
/// lose precision past 2^53).
struct Hex {
  std::uint64_t value;
};

void append_one(std::string& out, std::string_view text) { out += text; }

void append_one(std::string& out, std::uint64_t value) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void append_one(std::string& out, Hex fp) {
  char buf[16];
  out += "0x";
  out.append(buf, std::to_chars(buf, buf + sizeof buf, fp.value, 16).ptr);
}

template <class... Parts>
void append(std::string& out, const Parts&... parts) {
  (append_one(out, parts), ...);
}

constexpr char kHexDigits[] = "0123456789abcdef";

void append_hex_bytes(std::string& out, std::string_view bytes) {
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kHexDigits[b >> 4U]);
    out.push_back(kHexDigits[b & 0xfU]);
  }
}

/// 0-15 for a lowercase hex digit, -1 for anything else.
int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Decodes hex the chunk scan has already checked.
std::string hex_decode(std::string_view hex) {
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<char>((hex_nibble(hex[i]) << 4) | hex_nibble(hex[i + 1])));
  }
  return out;
}

// --- minimal parsers for the sidecar/manifest JSON we write ourselves ----
//
// Each works on a view of the file's one buffer: no substrings, no
// streams, and a message only when a check fails.

/// Position just past the first `"key"` in `text`.
std::size_t after_key(std::string_view text, std::string_view key,
                      std::string_view file) {
  for (std::size_t at = text.find(key); at != kNpos;
       at = text.find(key, at + 1)) {
    const std::size_t end = at + key.size();
    if (at > 0 && text[at - 1] == '"' && end < text.size() &&
        text[end] == '"') {
      return end + 1;
    }
  }
  defect(file, "missing field \"" + std::string(key) + "\"");
}

/// The still-escaped body of `"key": "..."` (first occurrence).  An
/// escape pair is stepped over whole, so `\\"` ends the string.
std::string_view find_quoted(std::string_view text, std::string_view key,
                             std::string_view file) {
  const std::size_t open = text.find('"', after_key(text, key, file));
  if (open == kNpos) {
    defect(file, "malformed field \"" + std::string(key) + "\"");
  }
  std::size_t close = open + 1;
  while (close < text.size() && text[close] != '"') {
    close += text[close] == '\\' ? 2 : 1;
  }
  if (close >= text.size()) {
    defect(file, "unterminated string for \"" + std::string(key) + "\"");
  }
  return text.substr(open + 1, close - open - 1);
}

/// Value of `"key": "..."` (first occurrence), unescaped.
std::string find_string(std::string_view text, std::string_view key,
                        std::string_view file) {
  return json_unescape(find_quoted(text, key, file));
}

/// Whether the escaped JSON string body `raw` decodes to `plain`; no
/// copy unless `raw` holds an escape.
bool decodes_to(std::string_view raw, std::string_view plain) {
  return raw.find('\\') == kNpos ? raw == plain : json_unescape(raw) == plain;
}

/// The text from the first character of `"key": <value>`'s value on.
std::string_view find_value(std::string_view text, std::string_view key,
                            std::string_view file) {
  std::size_t at = text.find(':', after_key(text, key, file));
  if (at == kNpos) defect(file, "malformed field \"" + std::string(key) + "\"");
  at = text.find_first_not_of(" \t\r\n", at + 1);
  return at == kNpos ? std::string_view() : text.substr(at);
}

/// Value of `"key": <number>` (first occurrence).
double find_number(std::string_view text, std::string_view key,
                   std::string_view file) {
  const std::string_view value = find_value(text, key, file);
  double out = 0.0;
  if (std::from_chars(value.data(), value.data() + value.size(), out).ec !=
      std::errc()) {
    defect(file, "non-numeric field \"" + std::string(key) + "\"");
  }
  return out;
}

/// Value of `"key": <integer>`.  Only a whole JSON integer in [0, 2^53]
/// (where doubles stop counting exactly) is accepted: a fraction or an
/// exponent must not truncate silently to a count on disk.
std::size_t find_size(std::string_view text, std::string_view key,
                      std::string_view file) {
  const std::string_view value = find_value(text, key, file);
  const char* last = value.data() + value.size();
  std::uint64_t out = 0;
  const auto [end, ec] = std::from_chars(value.data(), last, out);
  if (ec != std::errc() || out > (std::uint64_t{1} << 53U) ||
      (end != last && std::string_view(",}] \t\r\n").find(*end) == kNpos)) {
    defect(file, "field \"" + std::string(key) +
                     "\" is not an integer in [0, 2^53]");
  }
  return out;
}

/// Value of `"key": "0x<hex>"`.
std::uint64_t find_fingerprint(std::string_view text, std::string_view key,
                               std::string_view file) {
  const std::string_view raw = find_quoted(text, key, file);
  const std::string_view digits =
      raw.starts_with("0x") ? raw.substr(2) : std::string_view();
  const char* last = digits.data() + digits.size();
  std::uint64_t out = 0;
  const auto [end, ec] = std::from_chars(digits.data(), last, out, 16);
  if (ec != std::errc() || end != last) {
    defect(file, "field \"" + std::string(key) + "\" is not 0x<hex>");
  }
  return out;
}

/// The lines of `text` holding `token` — the one-object-per-line array
/// entries both writers emit, each starting `{"<tag>":`.  Manifest unit
/// lines start `{"unit":` and chunk/manifest point entries `{"point":`,
/// so the two arrays never cross-match.
std::vector<std::string_view> tagged_lines(std::string_view text,
                                           std::string_view token) {
  std::vector<std::string_view> out;
  std::size_t at = text.find(token);
  while (at != kNpos) {
    const std::size_t newline = text.rfind('\n', at);
    const std::size_t begin = newline == kNpos ? 0 : newline + 1;
    const std::size_t end = std::min(text.find('\n', at), text.size());
    out.push_back(text.substr(begin, end - begin));
    at = text.find(token, end);
  }
  return out;
}

constexpr std::string_view kPointTag = "{\"point\":";
constexpr std::string_view kUnitTag = "{\"unit\":";

/// The manifest bytes: a pure function of the grid, so every shard
/// process produces the identical file.  Replicated grids append the
/// per-point rep counts and the (point, rep) unit plan; plain grids
/// produce the exact pre-replication pimsim-manifest-v1 bytes.
std::string manifest_text(const GridSpec& grid) {
  std::string out;
  append(out, "{\n  \"schema\": \"pimsim-manifest-v1\",\n  \"scenario\": \"",
         json_escape(grid.scenario), "\",\n  \"format\": \"", grid.format,
         "\",\n  \"shards\": ", grid.shards,
         ",\n  \"total_points\": ", grid.assignments.size());
  if (grid.replicated) {
    append(out, ",\n  \"replicated\": true,\n  \"total_units\": ",
           grid.unit_point.size());
  }
  append(out, ",\n  \"grid_fingerprint\": \"", Hex{grid.grid_fingerprint},
         "\",\n  \"points\": [\n");
  for (std::size_t i = 0; i < grid.assignments.size(); ++i) {
    append(out, "    {\"point\": ", i, ", \"shard\": ", grid.shard_of[i]);
    if (grid.replicated) append(out, ", \"reps\": ", grid.point_reps[i]);
    append(out, ", \"assignment\": \"", json_escape(grid.assignments[i]),
           i + 1 < grid.assignments.size() ? "\"},\n" : "\"}\n");
  }
  out += "  ]";
  if (grid.replicated) {
    out += ",\n  \"units\": [\n";
    for (std::size_t u = 0; u < grid.unit_point.size(); ++u) {
      append(out, "    {\"unit\": ", u, ", \"point\": ", grid.unit_point[u],
             ", \"rep\": ", grid.unit_rep[u], ", \"shard\": ",
             grid.unit_shard[u],
             u + 1 < grid.unit_point.size() ? "},\n" : "}\n");
    }
    out += "  ]";
  }
  out += "\n}\n";
  return out;
}

/// The sidecar bytes of one chunk.  `wall_seconds` keeps the %.17g form
/// (std::to_chars general at precision 17 is specified as that printf).
std::string sidecar_text(const GridSpec& grid, std::size_t shard,
                         const std::vector<ChunkPoint>& points,
                         const std::vector<std::string>& metrics,
                         double wall_seconds) {
  char wall[32];
  const char* wall_end = std::to_chars(wall, wall + sizeof wall, wall_seconds,
                                       std::chars_format::general, 17)
                             .ptr;
  std::string out;
  append(out, "{\n  \"schema\": \"pimsim-chunk-v1\",\n  \"scenario\": \"",
         json_escape(grid.scenario), "\",\n  \"format\": \"", grid.format,
         "\",\n  \"shard\": ", shard, ",\n  \"shards\": ", grid.shards);
  if (grid.replicated) out += ",\n  \"replicated\": true";
  append(out, ",\n  \"grid_fingerprint\": \"", Hex{grid.grid_fingerprint},
         "\",\n  \"wall_seconds\": ", std::string_view(wall, wall_end - wall),
         ",\n  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ChunkPoint& p = points[i];
    append(out, "    {\"point\": ", p.point);
    if (grid.replicated) append(out, ", \"rep\": ", p.rep);
    append(out, ", \"assignment\": \"", json_escape(p.assignment),
           "\", \"bytes\": ", p.block.size(), ", \"fingerprint\": \"",
           Hex{p.fingerprint}, i + 1 < points.size() ? "\"},\n" : "\"}\n");
  }
  out += "  ],\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += i ? ",\n    \"" : "\n    \"";
    append_hex_bytes(out, metrics[i]);
    out += '"';
  }
  out += metrics.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

/// One chunk read from disk and checked against the manifest's grid in
/// one pass over its two files: sidecar header, per-unit plan, the
/// block extents, every block's FNV-1a, and the metrics hex.  The units
/// and metrics are views into the two buffers it owns, so it is neither
/// copied nor moved.  Throws InvalidArgument naming the file and the
/// defect.
struct ChunkScan {
  struct Unit {
    std::size_t point = 0;
    std::size_t rep = 0;
    std::string_view block;
    std::uint64_t fingerprint = 0;
  };

  ChunkScan(const std::string& dir, const GridSpec& grid, std::size_t shard);
  ChunkScan(const ChunkScan&) = delete;
  ChunkScan& operator=(const ChunkScan&) = delete;

  std::string sidecar;
  std::string csv;
  double wall_seconds = 0.0;
  std::vector<Unit> units;                ///< in grid order
  std::vector<std::string_view> metrics;  ///< hex, one per snapshot
};

ChunkScan::ChunkScan(const std::string& dir, const GridSpec& grid,
                     std::size_t shard) {
  const std::string base = chunk_basename(shard, grid.shards);
  const fs::path side_path = fs::path(dir) / (base + ".json");
  const fs::path csv_path = fs::path(dir) / (base + ".csv");
  const std::string file = side_path.string();
  const std::string csv_file = csv_path.string();
  sidecar = slurp(side_path, "chunk sidecar");
  const std::string_view text = sidecar;

  if (find_quoted(text, "schema", file) != "pimsim-chunk-v1") {
    defect(file, "unknown schema (expected pimsim-chunk-v1)");
  }
  if (!decodes_to(find_quoted(text, "scenario", file), grid.scenario)) {
    defect(file, "scenario differs from the manifest");
  }
  if (!decodes_to(find_quoted(text, "format", file), grid.format)) {
    defect(file, "format differs from the manifest");
  }
  if (find_size(text, "shard", file) != shard) {
    defect(file, "shard id disagrees with filename");
  }
  if (find_size(text, "shards", file) != grid.shards) {
    defect(file, "shard count differs from the manifest");
  }
  if (find_fingerprint(text, "grid_fingerprint", file) !=
      grid.grid_fingerprint) {
    defect(file, "chunk belongs to a different grid (grid fingerprint "
                 "mismatch)");
  }
  wall_seconds = find_number(text, "wall_seconds", file);
  if ((text.find("\"replicated\": true") != kNpos) != grid.replicated) {
    defect(file, "replication mode differs from the manifest");
  }

  csv = slurp(csv_path, "chunk data");
  const std::string_view blocks = csv;
  // The grid indices of the points (or units) this shard's plan owns.
  const std::vector<std::size_t>& owner =
      grid.replicated ? grid.unit_shard : grid.shard_of;
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < owner.size(); ++i) {
    if (owner[i] == shard) expected.push_back(i);
  }
  const std::vector<std::string_view> lines = tagged_lines(text, kPointTag);
  units.reserve(lines.size());
  std::size_t offset = 0;
  for (const std::string_view line : lines) {
    const std::size_t next = units.size();
    Unit u;
    u.point = find_size(line, "point", file);
    const std::string_view assignment = find_quoted(line, "assignment", file);
    const std::size_t bytes = find_size(line, "bytes", file);
    u.fingerprint = find_fingerprint(line, "fingerprint", file);
    if (grid.replicated) {
      u.rep = find_size(line, "rep", file);
      if (next >= expected.size() ||
          u.point != grid.unit_point[expected[next]] ||
          u.rep != grid.unit_rep[expected[next]]) {
        defect(file, "unit set diverges from the manifest's shard plan");
      }
    } else if (next >= expected.size() || u.point != expected[next]) {
      defect(file, "point set diverges from the manifest's shard plan");
    }
    if (u.point >= grid.assignments.size() ||
        !decodes_to(assignment, grid.assignments[u.point])) {
      defect(file, "point assignment differs from the manifest");
    }
    if (bytes > blocks.size() - offset) {
      defect(csv_file, "truncated (sidecar records more bytes than the file "
                       "holds)");
    }
    u.block = blocks.substr(offset, bytes);
    offset += bytes;
    units.push_back(u);
  }

  std::vector<std::string_view> views(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) views[i] = units[i].block;
  const std::vector<std::uint64_t> hashes = fnv1a_each(kFnvOffsetShort, views);
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (hashes[i] != units[i].fingerprint) {
      defect(csv_file, "point " + std::to_string(units[i].point) +
                           " bytes do not match the recorded fingerprint "
                           "(corrupted or divergent chunk)");
    }
  }
  if (units.size() != expected.size()) {
    defect(file, "chunk is missing points of its shard plan");
  }
  if (offset != blocks.size()) {
    defect(csv_file, "trailing bytes beyond the recorded points");
  }

  // Metrics snapshots: quoted hex strings inside the "metrics" array.
  const std::size_t array = text.find('[', after_key(text, "metrics", file));
  const std::size_t end = array == kNpos ? kNpos : text.find(']', array);
  if (end == kNpos) defect(file, "malformed \"metrics\" array");
  std::size_t open = text.find('"', array);
  while (open < end) {
    const std::size_t close = text.find('"', open + 1);
    if (close >= end) defect(file, "unterminated metrics snapshot");
    const std::string_view hex = text.substr(open + 1, close - open - 1);
    if (hex.size() % 2 != 0) defect(file, "odd-length metrics snapshot hex");
    if (!std::all_of(hex.begin(), hex.end(),
                     [](char c) { return hex_nibble(c) >= 0; })) {
      defect(file, "metrics snapshot is not valid hex");
    }
    metrics.push_back(hex);
    open = text.find('"', close + 1);
  }
}

}  // namespace

std::string chunk_basename(std::size_t shard, std::size_t shards) {
  return "chunk-" + std::to_string(shard) + "-of-" + std::to_string(shards);
}

void write_or_check_manifest(const std::string& dir, const GridSpec& grid) {
  const fs::path root(dir);
  if (fs::exists(root) && !fs::is_directory(root)) {
    throw InvalidArgument("pimsim sweep: out='" + dir +
                          "' exists and is not a directory; shard=i/N needs "
                          "a chunk directory");
  }
  fs::create_directories(root);
  const std::string text = manifest_text(grid);
  const fs::path path = root / "manifest.json";
  if (fs::exists(path)) {
    if (slurp(path, "manifest") != text) {
      throw InvalidArgument(
          "pimsim sweep: '" + path.string() +
          "' describes a different sweep (scenario, grid, format, or shard "
          "count changed); merge or delete the old chunks first");
    }
    return;
  }
  atomic_write(path, [&text](std::ostream& out) { out << text; });
}

void write_chunk(const std::string& dir, const GridSpec& grid,
                 std::size_t shard, const std::vector<ChunkPoint>& points,
                 const std::vector<std::string>& metrics, double wall_seconds) {
  const fs::path root(dir);
  const std::string base = chunk_basename(shard, grid.shards);
  atomic_write(root / (base + ".csv"), [&points](std::ostream& out) {
    for (const ChunkPoint& p : points) {
      out.write(p.block.data(), static_cast<std::streamsize>(p.block.size()));
    }
  });
  const std::string sidecar =
      sidecar_text(grid, shard, points, metrics, wall_seconds);
  atomic_write(root / (base + ".json"),
               [&sidecar](std::ostream& out) { out << sidecar; });
}

GridSpec read_manifest(const std::string& dir) {
  const fs::path path = fs::path(dir) / "manifest.json";
  if (!fs::exists(path)) {
    throw InvalidArgument(
        "pimsim merge: no manifest.json in '" + dir +
        "'; expected a chunk directory written by pimsim sweep shard=i/N "
        "out=DIR");
  }
  const std::string bytes = slurp(path, "manifest");
  const std::string_view text = bytes;
  const std::string file = path.string();
  if (find_quoted(text, "schema", file) != "pimsim-manifest-v1") {
    defect(file, "unknown schema (expected pimsim-manifest-v1)");
  }
  GridSpec grid;
  grid.scenario = find_string(text, "scenario", file);
  grid.format = find_string(text, "format", file);
  grid.shards = find_size(text, "shards", file);
  grid.grid_fingerprint = find_fingerprint(text, "grid_fingerprint", file);
  const std::size_t total = find_size(text, "total_points", file);
  if (grid.shards < 1) defect(file, "shards must be >= 1");

  grid.replicated = text.find("\"replicated\": true") != kNpos;

  for (const std::string_view line : tagged_lines(text, kPointTag)) {
    const std::size_t point = find_size(line, "point", file);
    const std::size_t shard = find_size(line, "shard", file);
    if (point != grid.assignments.size()) defect(file, "points out of order");
    if (shard >= grid.shards) {
      defect(file, "point assigned to shard " + std::to_string(shard) +
                       " of " + std::to_string(grid.shards));
    }
    grid.assignments.push_back(find_string(line, "assignment", file));
    grid.shard_of.push_back(shard);
    if (grid.replicated) {
      const std::size_t reps = find_size(line, "reps", file);
      if (reps < 1) {
        defect(file, "point " + std::to_string(point) + " declares zero reps");
      }
      grid.point_reps.push_back(reps);
    }
  }
  if (grid.assignments.size() != total) {
    defect(file, "total_points disagrees with the point list");
  }

  if (grid.replicated) {
    const std::size_t total_units = find_size(text, "total_units", file);
    for (const std::string_view line : tagged_lines(text, kUnitTag)) {
      const std::size_t unit = find_size(line, "unit", file);
      const std::size_t point = find_size(line, "point", file);
      const std::size_t rep = find_size(line, "rep", file);
      const std::size_t shard = find_size(line, "shard", file);
      if (unit != grid.unit_point.size()) defect(file, "units out of order");
      if (point >= grid.assignments.size() || rep >= grid.point_reps[point]) {
        defect(file, "unit " + std::to_string(unit) +
                         " names an out-of-range (point, rep)");
      }
      if (shard >= grid.shards) {
        defect(file, "unit assigned to shard " + std::to_string(shard) +
                         " of " + std::to_string(grid.shards));
      }
      grid.unit_point.push_back(point);
      grid.unit_rep.push_back(rep);
      grid.unit_shard.push_back(shard);
    }
    if (grid.unit_point.size() != total_units) {
      defect(file, "total_units disagrees with the unit list");
    }
    std::size_t expected_units = 0;
    for (const std::size_t r : grid.point_reps) expected_units += r;
    if (expected_units != total_units) {
      defect(file, "unit list does not cover every (point, rep) once");
    }
  }
  return grid;
}

ChunkData read_chunk(const std::string& dir, const GridSpec& grid,
                     std::size_t shard) {
  const ChunkScan scan(dir, grid, shard);
  ChunkData data;
  data.shard = shard;
  data.wall_seconds = scan.wall_seconds;
  data.points.reserve(scan.units.size());
  for (const ChunkScan::Unit& u : scan.units) {
    data.points.push_back(ChunkPoint{u.point, u.rep, grid.assignments[u.point],
                                     std::string(u.block), u.fingerprint});
  }
  data.metrics.reserve(scan.metrics.size());
  for (const std::string_view hex : scan.metrics) {
    data.metrics.push_back(hex_decode(hex));
  }
  return data;
}

bool chunk_complete(const std::string& dir, const GridSpec& grid,
                    std::size_t shard) {
  const fs::path side = fs::path(dir) / (chunk_basename(shard, grid.shards) + ".json");
  if (!fs::exists(side)) return false;
  try {
    const ChunkScan scan(dir, grid, shard);
    return true;
  } catch (const ConfigError&) {
    return false;  // present but invalid -> recompute
  }
}

std::vector<std::size_t> chunks_present(const std::string& dir,
                                        const GridSpec& grid) {
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());  // directory order is unspecified

  const auto bad = [&dir](const std::string& name) -> std::size_t {
    throw InvalidArgument(
        "pimsim merge: unknown chunk-dir contents: '" + dir + "/" + name +
        "'; valid chunk files are chunk-<i>-of-<N>.csv/.json with N the "
        "manifest's shard count and 0 <= i < N");
  };
  std::vector<std::size_t> shards;
  for (const std::string& name : names) {
    if (name.rfind("chunk-", 0) != 0) continue;  // not chunk-like: ignored
    std::string stem = name;
    bool sidecar = false;
    if (stem.size() > 5 && stem.rfind(".json") == stem.size() - 5) {
      stem.erase(stem.size() - 5);
      sidecar = true;
    } else if (stem.size() > 4 && stem.rfind(".csv") == stem.size() - 4) {
      stem.erase(stem.size() - 4);
    } else {
      bad(name);
    }
    // stem must be exactly chunk-<i>-of-<N> with N == grid.shards, i < N.
    const std::size_t of = stem.find("-of-");
    if (of == std::string::npos) bad(name);
    const std::string index_text = stem.substr(6, of - 6);
    const std::string count_text = stem.substr(of + 4);
    std::size_t index = 0;
    std::size_t count = 0;
    try {
      std::size_t used = 0;
      index = std::stoul(index_text, &used);
      if (used != index_text.size() || index_text.empty()) bad(name);
      count = std::stoul(count_text, &used);
      if (used != count_text.size() || count_text.empty()) bad(name);
    } catch (const std::exception&) {
      bad(name);
    }
    if (count != grid.shards || index >= count) bad(name);
    if (sidecar) shards.push_back(index);
  }
  return shards;
}

}  // namespace pimsim::core
