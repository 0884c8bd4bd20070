#include "prefs/profile.h"

#include <charconv>
#include <system_error>

#include "common/logging.h"
#include "common/str_util.h"
#include "sql/lexer.h"

namespace cqp::prefs {

Status Profile::AddSelection(AtomicSelection pref) {
  if (!IsValidDoi(pref.doi)) {
    return InvalidArgument("doi out of [0,1] for " + pref.ConditionString());
  }
  for (const AtomicSelection& existing : selections_) {
    if (existing.SameCondition(pref)) {
      return AlreadyExists("preference " + pref.ConditionString());
    }
  }
  selections_.push_back(std::move(pref));
  return Status::OK();
}

Status Profile::AddJoin(AtomicJoin pref) {
  if (!IsValidDoi(pref.doi)) {
    return InvalidArgument("doi out of [0,1] for " + pref.ConditionString());
  }
  if (EqualsIgnoreCase(pref.from_relation, pref.to_relation)) {
    return InvalidArgument("self-join preference not supported: " +
                           pref.ConditionString());
  }
  for (const AtomicJoin& existing : joins_) {
    if (existing.SameCondition(pref)) {
      return AlreadyExists("preference " + pref.ConditionString());
    }
  }
  joins_.push_back(std::move(pref));
  return Status::OK();
}

Status Profile::ValidateAgainst(const storage::Database& db) const {
  for (const AtomicSelection& p : selections_) {
    CQP_ASSIGN_OR_RETURN(const storage::Table* table,
                         db.GetTable(p.relation));
    CQP_ASSIGN_OR_RETURN(int col,
                         table->schema().AttributeIndex(p.attribute));
    if (table->schema().attribute(static_cast<size_t>(col)).type !=
        p.value.type()) {
      return InvalidArgument("type mismatch in " + p.ConditionString());
    }
  }
  for (const AtomicJoin& p : joins_) {
    CQP_ASSIGN_OR_RETURN(const storage::Table* from,
                         db.GetTable(p.from_relation));
    CQP_ASSIGN_OR_RETURN(int from_col,
                         from->schema().AttributeIndex(p.from_attribute));
    CQP_ASSIGN_OR_RETURN(const storage::Table* to, db.GetTable(p.to_relation));
    CQP_ASSIGN_OR_RETURN(int to_col,
                         to->schema().AttributeIndex(p.to_attribute));
    if (from->schema().attribute(static_cast<size_t>(from_col)).type !=
        to->schema().attribute(static_cast<size_t>(to_col)).type) {
      return InvalidArgument("type mismatch in " + p.ConditionString());
    }
  }
  return Status::OK();
}

namespace {

/// The shortest fixed-notation text that parses back to exactly `doi`
/// (the lexer reads no exponents), so a profile survives ToText/Parse —
/// e.g. a journal replay or a page-in — with bit-identical dois. Integral
/// values keep a ".0" so they lex as doubles and -0.0 keeps its sign.
std::string DoiText(double doi) {
  char buf[512];  // fixed notation of any double in [0, 1] fits
  auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), doi, std::chars_format::fixed);
  CQP_CHECK(ec == std::errc());
  std::string text(buf, end);
  if (text.find('.') == std::string::npos) text += ".0";
  return text;
}

}  // namespace

std::string Profile::ToText() const {
  std::string out;
  for (const AtomicJoin& p : joins_) {
    out += "doi(" + p.ConditionString() + ") = " + DoiText(p.doi) + "\n";
  }
  for (const AtomicSelection& p : selections_) {
    out += "doi(" + p.ConditionString() + ") = " + DoiText(p.doi) + "\n";
  }
  return out;
}

namespace {

/// Parses one "doi(<condition>) = <value>" line.
Status ParseLine(const std::string& line, Profile* profile) {
  CQP_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(line));
  size_t i = 0;
  auto expect_symbol = [&](const char* sym) -> Status {
    if (!tokens[i].IsSymbol(sym)) {
      return InvalidArgument(StrFormat("expected '%s' in: %s", sym,
                                       line.c_str()));
    }
    ++i;
    return Status::OK();
  };
  if (tokens[i].kind != sql::TokenKind::kIdentifier ||
      !EqualsIgnoreCase(tokens[i].text, "doi")) {
    return InvalidArgument("expected doi(...) in: " + line);
  }
  ++i;
  CQP_RETURN_IF_ERROR(expect_symbol("("));

  // lhs column: rel.attr
  auto parse_column = [&](std::string* rel, std::string* attr) -> Status {
    if (tokens[i].kind != sql::TokenKind::kIdentifier) {
      return InvalidArgument("expected relation name in: " + line);
    }
    *rel = tokens[i++].text;
    CQP_RETURN_IF_ERROR(expect_symbol("."));
    if (tokens[i].kind != sql::TokenKind::kIdentifier) {
      return InvalidArgument("expected attribute name in: " + line);
    }
    *attr = tokens[i++].text;
    return Status::OK();
  };

  std::string rel, attr;
  CQP_RETURN_IF_ERROR(parse_column(&rel, &attr));

  catalog::CompareOp op;
  {
    const sql::Token& t = tokens[i];
    if (t.IsSymbol("=")) {
      op = catalog::CompareOp::kEq;
    } else if (t.IsSymbol("<>")) {
      op = catalog::CompareOp::kNe;
    } else if (t.IsSymbol("<")) {
      op = catalog::CompareOp::kLt;
    } else if (t.IsSymbol("<=")) {
      op = catalog::CompareOp::kLe;
    } else if (t.IsSymbol(">")) {
      op = catalog::CompareOp::kGt;
    } else if (t.IsSymbol(">=")) {
      op = catalog::CompareOp::kGe;
    } else {
      return InvalidArgument("expected comparison operator in: " + line);
    }
    ++i;
  }

  // rhs: literal (selection) or column (join).
  bool is_join = tokens[i].kind == sql::TokenKind::kIdentifier;
  AtomicSelection sel;
  AtomicJoin join;
  if (is_join) {
    if (op != catalog::CompareOp::kEq) {
      return InvalidArgument("join preferences must use '=' in: " + line);
    }
    join.from_relation = rel;
    join.from_attribute = attr;
    CQP_RETURN_IF_ERROR(parse_column(&join.to_relation, &join.to_attribute));
  } else {
    sel.relation = rel;
    sel.attribute = attr;
    sel.op = op;
    switch (tokens[i].kind) {
      case sql::TokenKind::kInt:
        sel.value = catalog::Value(tokens[i].int_value);
        break;
      case sql::TokenKind::kDouble:
        sel.value = catalog::Value(tokens[i].double_value);
        break;
      case sql::TokenKind::kString:
        sel.value = catalog::Value(tokens[i].text);
        break;
      default:
        return InvalidArgument("expected literal in: " + line);
    }
    ++i;
  }

  CQP_RETURN_IF_ERROR(expect_symbol(")"));
  CQP_RETURN_IF_ERROR(expect_symbol("="));

  double doi;
  if (tokens[i].kind == sql::TokenKind::kDouble) {
    doi = tokens[i].double_value;
  } else if (tokens[i].kind == sql::TokenKind::kInt) {
    doi = static_cast<double>(tokens[i].int_value);
  } else {
    return InvalidArgument("expected doi value in: " + line);
  }
  ++i;
  if (tokens[i].kind != sql::TokenKind::kEnd) {
    return InvalidArgument("trailing input in: " + line);
  }

  if (is_join) {
    join.doi = doi;
    return profile->AddJoin(std::move(join));
  }
  sel.doi = doi;
  return profile->AddSelection(std::move(sel));
}

}  // namespace

StatusOr<Profile> Profile::Parse(const std::string& text) {
  Profile profile;
  for (const std::string& raw : Split(text, '\n')) {
    std::string_view line = StripWhitespace(raw);
    if (line.empty() || line.front() == '#') continue;
    CQP_RETURN_IF_ERROR(ParseLine(std::string(line), &profile));
  }
  return profile;
}

}  // namespace cqp::prefs
