#ifndef CQP_PREFS_PROFILE_H_
#define CQP_PREFS_PROFILE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "prefs/preference.h"
#include "storage/database.h"

namespace cqp::prefs {

/// A user profile: the atomic preferences (selection and join edges of the
/// user's personalization graph) with their degrees of interest.
class Profile {
 public:
  Profile() = default;

  /// Adds an atomic selection preference. Rejects invalid dois and
  /// duplicate conditions (use ReplaceDoi to update).
  Status AddSelection(AtomicSelection pref);
  /// Adds an atomic join preference.
  Status AddJoin(AtomicJoin pref);

  const std::vector<AtomicSelection>& selections() const {
    return selections_;
  }
  const std::vector<AtomicJoin>& joins() const { return joins_; }

  size_t size() const { return selections_.size() + joins_.size(); }
  bool empty() const { return selections_.empty() && joins_.empty(); }

  /// Checks every preference against `db`'s schema: relations and
  /// attributes must exist, selection literal types must match the column.
  Status ValidateAgainst(const storage::Database& db) const;

  /// Serializes to the line format accepted by Parse (stable order). Dois
  /// round-trip exactly: Parse(ToText()) has bit-identical dois.
  std::string ToText() const;

  /// Parses the textual profile format:
  ///
  ///   # comment / blank lines ignored
  ///   doi(GENRE.genre = 'musical') = 0.5
  ///   doi(MOVIE.mid = GENRE.mid) = 0.9
  ///
  /// A line is a join preference iff the right-hand side of the inner
  /// condition is a column reference.
  static StatusOr<Profile> Parse(const std::string& text);

 private:
  std::vector<AtomicSelection> selections_;
  std::vector<AtomicJoin> joins_;
};

}  // namespace cqp::prefs

#endif  // CQP_PREFS_PROFILE_H_
