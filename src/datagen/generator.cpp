#include "datagen/generator.hpp"

#include <cmath>

namespace edc::datagen {
namespace {

// Letter frequencies loosely matching identifier-ish text; used to build a
// deterministic vocabulary per generator seed.
constexpr char kAlphabet[] = "etaonrishdlfcmugypwbvkxjqz_";

std::string MakeWord(Pcg32& rng, const ZipfSampler& length_zipf,
                     const ZipfSampler& letter_zipf) {
  std::size_t len = 2 + length_zipf.Sample(rng);
  std::string w;
  w.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    w.push_back(kAlphabet[letter_zipf.Sample(rng)]);
  }
  return w;
}

}  // namespace

ContentGenerator::ContentGenerator(ContentProfile profile, u64 seed)
    : profile_(std::move(profile)),
      seed_(seed),
      word_zipf_(profile_.text_vocabulary, profile_.text_zipf),
      dup_zipf_(profile_.dup_universe, 0.9) {
  Pcg32 rng = Pcg32::Derive(seed_, 0xB0CAB'0000ull);
  const ZipfSampler length_zipf(10, 0.8);
  const ZipfSampler letter_zipf(sizeof(kAlphabet) - 1, 0.7);
  vocabulary_.reserve(profile_.text_vocabulary);
  for (u32 i = 0; i < profile_.text_vocabulary; ++i) {
    vocabulary_.push_back(MakeWord(rng, length_zipf, letter_zipf));
  }
}

ChunkKind ContentGenerator::KindForLba(Lba lba) const {
  // Deterministic weighted choice keyed by LBA only (not version): a block
  // keeps its content class for its lifetime.
  Pcg32 rng = Pcg32::Derive(seed_ ^ 0x9E3779B97F4A7C15ull, lba);
  double total = profile_.TotalWeight();
  if (total <= 0) return ChunkKind::kRandom;
  double pick = rng.NextDouble() * total;
  for (std::size_t k = 0; k < kNumChunkKinds; ++k) {
    pick -= profile_.weights[k];
    if (pick < 0) return static_cast<ChunkKind>(k);
  }
  return ChunkKind::kZero;
}

Bytes ContentGenerator::Generate(Lba lba, u64 version,
                                 std::size_t size) const {
  // Dedup model: some blocks carry pool content that is byte-identical
  // wherever it appears (independent of lba and version).
  if (profile_.dup_fraction > 0) {
    Pcg32 dup_rng = Pcg32::Derive(seed_ ^ 0xDED0Dull, lba * 131 + version);
    if (dup_rng.NextBool(profile_.dup_fraction)) {
      u32 dup_id = dup_zipf_.Sample(dup_rng);
      Pcg32 rng = Pcg32::Derive(seed_ ^ 0xDED1Dull, dup_id);
      // Pool entries keep realistic kind mixtures too.
      ChunkKind kind = KindForLba(static_cast<Lba>(dup_id) + 7919);
      return GenerateChunk(kind, rng, size);
    }
  }
  ChunkKind kind = KindForLba(lba);
  if (profile_.update_delta > 0 && version > 0) {
    // Version v = base content with a sparse, version-specific byte
    // mutation — the similarity Delta-FTL-style schemes exploit.
    Pcg32 base_rng = Pcg32::Derive(seed_ ^ Mix64(1), lba);
    Bytes content = GenerateChunk(kind, base_rng, size);
    Pcg32 mut = Pcg32::Derive(seed_ ^ 0xDE17Aull, lba * 8191 + version);
    auto mutations = static_cast<std::size_t>(
        profile_.update_delta * static_cast<double>(size));
    for (std::size_t m = 0; m < mutations && !content.empty(); ++m) {
      content[mut.NextBounded(static_cast<u32>(content.size()))] =
          static_cast<u8>(mut.NextU32());
    }
    return content;
  }
  Pcg32 rng = Pcg32::Derive(seed_ ^ Mix64(version + 1), lba);
  return GenerateChunk(kind, rng, size);
}

Bytes ContentGenerator::GenerateCorpus(std::size_t total,
                                       std::size_t chunk_size) const {
  Bytes out;
  out.reserve(total);
  Lba lba = 0;
  while (out.size() < total) {
    Bytes chunk = Generate(lba++, 0, std::min(chunk_size, total - out.size()));
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

Bytes ContentGenerator::GenerateChunk(ChunkKind kind, Pcg32& rng,
                                      std::size_t size) const {
  switch (kind) {
    case ChunkKind::kRandom: {
      Bytes out(size);
      for (auto& b : out) b = static_cast<u8>(rng.NextU32());
      return out;
    }
    case ChunkKind::kText:
      return GenerateText(rng, size);
    case ChunkKind::kMotif:
      return GenerateMotif(rng, size);
    case ChunkKind::kRuns:
      return GenerateRuns(rng, size);
    case ChunkKind::kZero:
      return Bytes(size, 0);
  }
  return Bytes(size, 0);
}

Bytes ContentGenerator::GenerateText(Pcg32& rng, std::size_t size) const {
  Bytes out;
  out.reserve(size + 16);
  std::size_t line_len = 0;
  while (out.size() < size) {
    const std::string& w = vocabulary_[word_zipf_.Sample(rng)];
    out.insert(out.end(), w.begin(), w.end());
    line_len += w.size() + 1;
    if (line_len > 60 && rng.NextBool(0.4)) {
      out.push_back('\n');
      // Indentation, like source code.
      std::size_t indent = rng.NextBounded(5) * 2;
      out.insert(out.end(), indent, ' ');
      line_len = indent;
    } else {
      out.push_back(rng.NextBool(0.12) ? u8{'.'} : u8{' '});
    }
  }
  out.resize(size);
  return out;
}

Bytes ContentGenerator::GenerateMotif(Pcg32& rng, std::size_t size) const {
  // A small pool of motifs repeated with point mutations and varying
  // record headers — mimics serialized records / machine code sections.
  const std::size_t motif_len = profile_.motif_length;
  std::array<Bytes, 4> motifs;
  for (auto& m : motifs) {
    m.resize(motif_len);
    for (auto& b : m) b = static_cast<u8>(rng.NextU32());
  }
  Bytes out;
  out.reserve(size + motif_len);
  u32 record_id = rng.NextU32();
  while (out.size() < size) {
    const Bytes& m = motifs[rng.NextBounded(4)];
    // 4-byte record header (little repetition) then a mutated motif body.
    ++record_id;
    out.push_back(static_cast<u8>(record_id));
    out.push_back(static_cast<u8>(record_id >> 8));
    out.push_back(static_cast<u8>(record_id >> 16));
    out.push_back(static_cast<u8>(record_id >> 24));
    for (u8 b : m) {
      out.push_back(rng.NextBool(profile_.motif_mutation)
                        ? static_cast<u8>(rng.NextU32())
                        : b);
    }
  }
  out.resize(size);
  return out;
}

Bytes ContentGenerator::GenerateRuns(Pcg32& rng, std::size_t size) const {
  Bytes out;
  out.reserve(size + 64);
  while (out.size() < size) {
    u8 value = static_cast<u8>(rng.NextBounded(8) * 31);
    std::size_t run = 16 + rng.NextBounded(480);
    out.insert(out.end(), run, value);
  }
  out.resize(size);
  return out;
}

double ByteEntropy(ByteSpan data) {
  if (data.empty()) return 0.0;
  std::array<u64, 256> counts{};
  for (u8 b : data) ++counts[b];
  double n = static_cast<double>(data.size());
  double h = 0.0;
  for (u64 c : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace edc::datagen
