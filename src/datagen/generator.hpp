// Deterministic synthetic content generation (SDGen analog).
//
// The generator is a pure function of (profile, seed, lba, version):
// regenerating a block for the same key yields identical bytes, so a trace
// replay can materialize write payloads on demand without storing them, and
// functional tests can verify read-back content after decompression.
#pragma once

#include "common/rng.hpp"
#include "datagen/profile.hpp"

namespace edc::datagen {

/// Per-block content generator over a fixed profile.
class ContentGenerator {
 public:
  ContentGenerator(ContentProfile profile, u64 seed);

  /// Generate `size` bytes for logical block `lba` at write `version`
  /// (bump the version on overwrite to get different-but-deterministic
  /// content). The chunk kind is chosen per (lba) so a block keeps its
  /// compressibility class across overwrites — matching how file regions
  /// keep their type in real systems.
  Bytes Generate(Lba lba, u64 version, std::size_t size) const;

  /// The chunk kind assigned to a given LBA under this profile.
  ChunkKind KindForLba(Lba lba) const;

  /// Generate a flat corpus of `total` bytes made of `chunk_size` chunks
  /// (used by the Fig. 2 codec-efficiency bench).
  Bytes GenerateCorpus(std::size_t total, std::size_t chunk_size = 4096) const;

  const ContentProfile& profile() const { return profile_; }
  u64 seed() const { return seed_; }

 private:
  Bytes GenerateChunk(ChunkKind kind, Pcg32& rng, std::size_t size) const;
  Bytes GenerateText(Pcg32& rng, std::size_t size) const;
  Bytes GenerateMotif(Pcg32& rng, std::size_t size) const;
  Bytes GenerateRuns(Pcg32& rng, std::size_t size) const;

  ContentProfile profile_;
  u64 seed_;
  std::vector<std::string> vocabulary_;  // derived deterministically
  ZipfSampler word_zipf_;  // vocabulary rank per text word
  ZipfSampler dup_zipf_;   // dedup pool entry per duplicate block
};

/// Shannon entropy of the byte distribution in bits/byte (0..8). A cheap
/// proxy for compressibility used by tests and the estimator's baseline.
double ByteEntropy(ByteSpan data);

}  // namespace edc::datagen
