#include "lapx/group/cayley.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace lapx::group {

CayleyGraph materialize_cayley(const WreathGroup& group,
                               const std::vector<Elem>& generators,
                               std::int64_t max_vertices) {
  if (!group.finite())
    throw std::invalid_argument("cannot materialise an infinite group");
  const std::int64_t n = group.size();
  if (n > max_vertices)
    throw std::invalid_argument("group too large to materialise: " +
                                std::to_string(n));
  std::set<Elem> seen;
  for (const Elem& s : generators) {
    if (group.is_identity(s))
      throw std::invalid_argument("identity in generator set");
    if (!seen.insert(s).second)
      throw std::invalid_argument("duplicate generator");
  }
  const auto k = static_cast<graph::Label>(generators.size());
  std::vector<graph::Arc> arcs;
  for (std::int64_t i = 0; i < n; ++i) {
    const Elem g = group.decode(i);
    for (graph::Label si = 0; si < k; ++si) {
      const Elem h = group.multiply(g, generators[si]);
      arcs.push_back({static_cast<graph::Vertex>(i),
                      static_cast<graph::Vertex>(group.encode(h)), si});
    }
  }
  return {group, generators,
          graph::LDigraph::from_arcs(static_cast<graph::Vertex>(n), k,
                                     std::move(arcs))};
}

namespace {

// DFS over reduced words.  Letters 0..k-1 are generators, k..2k-1 their
// inverses; letter x backtracks letter y iff x == inverse_of(y).
bool dfs_words(const WreathGroup& group, const std::vector<Elem>& letters,
               const Elem& current, int last_letter, int remaining,
               bool& found_identity) {
  const int total = static_cast<int>(letters.size());
  const int k = total / 2;
  for (int letter = 0; letter < total; ++letter) {
    if (last_letter >= 0) {
      const int inverse = last_letter < k ? last_letter + k : last_letter - k;
      if (letter == inverse) continue;  // not reduced
    }
    const Elem next = group.multiply(current, letters[letter]);
    if (group.is_identity(next)) {
      found_identity = true;
      return true;
    }
    if (remaining > 1 &&
        dfs_words(group, letters, next, letter, remaining - 1, found_identity))
      return true;
  }
  return false;
}

std::vector<Elem> letters_for(const WreathGroup& group,
                              const std::vector<Elem>& generators) {
  std::vector<Elem> letters = generators;
  for (const Elem& s : generators) letters.push_back(group.inverse(s));
  return letters;
}

}  // namespace

bool girth_exceeds(const WreathGroup& group,
                   const std::vector<Elem>& generators, int max_len) {
  if (max_len < 1) return true;
  for (const Elem& s : generators)
    if (group.is_identity(s)) return false;
  bool found = false;
  dfs_words(group, letters_for(group, generators), group.identity(), -1,
            max_len, found);
  return !found;
}

int word_girth(const WreathGroup& group, const std::vector<Elem>& generators,
               int cap) {
  for (int g = 1; g <= cap; ++g) {
    // Exact: the shortest identity word has length g iff length <= g finds
    // one but length <= g-1 does not; scanning upward returns the first hit.
    bool found = false;
    dfs_words(group, letters_for(group, generators), group.identity(), -1, g,
              found);
    if (found) return g;
  }
  return cap + 1;
}

std::optional<GeneratorSet> find_generators(int k, int min_girth_exclusive,
                                            int max_level,
                                            std::mt19937_64& rng,
                                            int attempts_per_level) {
  if (k < 1) throw std::invalid_argument("need k >= 1");
  for (int level = 2; level <= max_level; ++level) {
    const WreathGroup w(level, 2);
    const int d = w.dimension();
    std::uniform_int_distribution<int> bit(0, 1);
    for (int attempt = 0; attempt < attempts_per_level; ++attempt) {
      std::set<Elem> set;
      int guard = 0;
      while (static_cast<int>(set.size()) < k && guard++ < 100 * k) {
        Elem s(static_cast<std::size_t>(d));
        for (int i = 0; i < d; ++i) s[i] = bit(rng);
        if (!w.is_identity(s)) set.insert(s);
      }
      if (static_cast<int>(set.size()) < k) break;
      std::vector<Elem> gens(set.begin(), set.end());
      if (girth_exceeds(w, gens, min_girth_exclusive))
        return GeneratorSet{level, gens};
    }
  }
  return std::nullopt;
}

}  // namespace lapx::group
