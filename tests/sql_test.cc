#include <gtest/gtest.h>

#include <charconv>
#include <limits>
#include <string>

#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace cqp::sql {
namespace {

using catalog::CompareOp;

// ---------- Lexer ----------

TEST(LexerTest, KeywordsUppercasedIdentifiersKept) {
  auto tokens = *Lex("select Title from Movie");
  ASSERT_EQ(tokens.size(), 5u);  // incl. kEnd
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "Title");
  EXPECT_TRUE(tokens[2].IsKeyword("FROM"));
  EXPECT_EQ(tokens[4].kind, TokenKind::kEnd);
}

TEST(LexerTest, NumbersIntAndDouble) {
  auto tokens = *Lex("42 4.5 -3");
  EXPECT_EQ(tokens[0].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 4.5);
  EXPECT_EQ(tokens[2].int_value, -3);
}

TEST(LexerTest, OutOfRangeNumbersAreErrorsNotExceptions) {
  auto too_big = Lex("year = 99999999999999999999");
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_big.status().message().find("99999999999999999999"),
            std::string::npos);
  EXPECT_NE(too_big.status().message().find("offset 7"), std::string::npos);
  std::string huge_double = "1" + std::string(400, '0') + ".5";
  EXPECT_EQ(Lex(huge_double).status().code(), StatusCode::kInvalidArgument);
  // Both int64 extremes and a fixed-notation subnormal still lex exactly.
  auto edges = *Lex("9223372036854775807 -9223372036854775808");
  EXPECT_EQ(edges[0].int_value, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(edges[1].int_value, std::numeric_limits<int64_t>::min());
  const double subnormal = std::numeric_limits<double>::denorm_min();
  char buf[512];
  auto printed = std::to_chars(buf, buf + sizeof buf, subnormal,
                               std::chars_format::fixed);
  auto tiny = Lex(std::string(buf, printed.ptr));
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  EXPECT_EQ((*tiny)[0].double_value, subnormal);
}

TEST(LexerTest, StringWithEscapedQuote) {
  auto tokens = *Lex("'O''Hara'");
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "O'Hara");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("'oops").ok());
}

TEST(LexerTest, ComparisonOperators) {
  auto tokens = *Lex("< <= > >= <> != =");
  EXPECT_TRUE(tokens[0].IsSymbol("<"));
  EXPECT_TRUE(tokens[1].IsSymbol("<="));
  EXPECT_TRUE(tokens[2].IsSymbol(">"));
  EXPECT_TRUE(tokens[3].IsSymbol(">="));
  EXPECT_TRUE(tokens[4].IsSymbol("<>"));
  EXPECT_TRUE(tokens[5].IsSymbol("<>"));  // != normalizes to <>
  EXPECT_TRUE(tokens[6].IsSymbol("="));
}

TEST(LexerTest, RejectsStrayCharacter) {
  EXPECT_FALSE(Lex("select @ from t").ok());
}

// ---------- Parser ----------

TEST(ParserTest, MinimalQuery) {
  SelectQuery q = *ParseSelect("SELECT title FROM MOVIE");
  ASSERT_EQ(q.select_list.size(), 1u);
  EXPECT_EQ(q.select_list[0].attribute, "title");
  EXPECT_TRUE(q.select_list[0].qualifier.empty());
  ASSERT_EQ(q.from.size(), 1u);
  EXPECT_EQ(q.from[0].relation, "MOVIE");
  EXPECT_TRUE(q.where.empty());
  EXPECT_FALSE(q.distinct);
}

TEST(ParserTest, StarSelect) {
  SelectQuery q = *ParseSelect("SELECT * FROM MOVIE;");
  EXPECT_TRUE(q.select_list.empty());
}

TEST(ParserTest, DistinctFlag) {
  SelectQuery q = *ParseSelect("SELECT DISTINCT title FROM MOVIE");
  EXPECT_TRUE(q.distinct);
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  SelectQuery q =
      *ParseSelect("SELECT M.title FROM MOVIE AS M, DIRECTOR D");
  ASSERT_EQ(q.from.size(), 2u);
  EXPECT_EQ(q.from[0].alias, "M");
  EXPECT_EQ(q.from[1].alias, "D");
  EXPECT_EQ(q.from[1].EffectiveAlias(), "D");
}

TEST(ParserTest, WhereWithJoinsAndSelections) {
  SelectQuery q = *ParseSelect(
      "SELECT M.title FROM MOVIE M, DIRECTOR D "
      "WHERE M.did = D.did AND D.name = 'W. Allen' AND M.year >= 1970");
  ASSERT_EQ(q.where.size(), 3u);
  EXPECT_EQ(q.where[0].kind, Predicate::Kind::kJoin);
  EXPECT_EQ(q.where[1].kind, Predicate::Kind::kSelection);
  EXPECT_EQ(q.where[1].literal.AsString(), "W. Allen");
  EXPECT_EQ(q.where[2].op, CompareOp::kGe);
  EXPECT_EQ(q.where[2].literal.AsInt(), 1970);
}

TEST(ParserTest, DoubleLiteral) {
  SelectQuery q = *ParseSelect("SELECT a FROM t WHERE t.x < 2.5");
  EXPECT_DOUBLE_EQ(q.where[0].literal.AsDouble(), 2.5);
}

TEST(ParserTest, ErrorsOnMissingFrom) {
  EXPECT_FALSE(ParseSelect("SELECT title").ok());
}

TEST(ParserTest, ErrorsOnTrailingGarbage) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE a = 1 b").ok());
}

TEST(ParserTest, ErrorsOnMissingPredicateRhs) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE a =").ok());
}

TEST(ParserTest, ErrorsOnDanglingComma) {
  EXPECT_FALSE(ParseSelect("SELECT a, FROM t").ok());
}

TEST(ParserTest, OrderByAndLimit) {
  SelectQuery q = *ParseSelect(
      "SELECT title, year FROM MOVIE ORDER BY year DESC, title LIMIT 5");
  ASSERT_EQ(q.order_by.size(), 2u);
  EXPECT_TRUE(q.order_by[0].descending);
  EXPECT_EQ(q.order_by[0].column.attribute, "year");
  EXPECT_FALSE(q.order_by[1].descending);
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 5);
}

TEST(ParserTest, ExplicitAscAccepted) {
  SelectQuery q = *ParseSelect("SELECT a FROM t ORDER BY a ASC");
  ASSERT_EQ(q.order_by.size(), 1u);
  EXPECT_FALSE(q.order_by[0].descending);
}

TEST(ParserTest, LimitWithoutOrderBy) {
  SelectQuery q = *ParseSelect("SELECT a FROM t LIMIT 3");
  EXPECT_TRUE(q.order_by.empty());
  EXPECT_EQ(*q.limit, 3);
}

TEST(ParserTest, BadLimitRejected) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT -1").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t ORDER year").ok());
}

// ---------- Printer round trips ----------

TEST(PrinterTest, RoundTripPreservesSemantics) {
  const char* cases[] = {
      "SELECT title FROM MOVIE",
      "SELECT DISTINCT M.title, D.name FROM MOVIE M, DIRECTOR D WHERE "
      "M.did = D.did",
      "SELECT * FROM GENRE WHERE GENRE.genre = 'sci-fi'",
      "SELECT a FROM t WHERE t.x >= 10 AND t.y <> 'z'",
      "SELECT a, b FROM t ORDER BY b DESC, a LIMIT 7",
  };
  for (const char* text : cases) {
    SelectQuery q1 = *ParseSelect(text);
    std::string sql = q1.ToSql();
    auto q2 = ParseSelect(sql);
    ASSERT_TRUE(q2.ok()) << sql;
    EXPECT_EQ(sql, q2->ToSql()) << "printer not a fixed point for " << text;
    EXPECT_EQ(q1.where.size(), q2->where.size());
    for (size_t i = 0; i < q1.where.size(); ++i) {
      EXPECT_TRUE(q1.where[i] == q2->where[i]) << sql;
    }
  }
}

TEST(PrinterTest, StringLiteralEscaping) {
  SelectQuery q = *ParseSelect("SELECT a FROM t WHERE t.n = 'O''Hara'");
  EXPECT_NE(q.ToSql().find("'O''Hara'"), std::string::npos);
  SelectQuery q2 = *ParseSelect(q.ToSql());
  EXPECT_EQ(q2.where[0].literal.AsString(), "O'Hara");
}

// ---------- UnionGroupQuery (the §4.2 statement) ----------

TEST(UnionGroupTest, ParsesPaperShape) {
  auto q = *ParseUnionGroup(
      "SELECT title FROM ("
      "  SELECT M.title FROM MOVIE M, DIRECTOR D"
      "    WHERE M.did = D.did AND D.name = 'W. Allen'"
      "  UNION ALL"
      "  SELECT M.title FROM MOVIE M, GENRE G"
      "    WHERE M.mid = G.mid AND G.genre = 'musical'"
      ") GROUP BY title HAVING COUNT(*) = 2");
  EXPECT_EQ(q.branches.size(), 2u);
  EXPECT_EQ(q.having_count, 2);
  ASSERT_EQ(q.select_list.size(), 1u);
  EXPECT_EQ(q.select_list[0].attribute, "title");
  EXPECT_EQ(q.branches[0].where.size(), 2u);
}

TEST(UnionGroupTest, PrinterRoundTrip) {
  const char* text =
      "SELECT title FROM (\n"
      "  SELECT DISTINCT MOVIE.title FROM MOVIE WHERE MOVIE.year >= 1990\n"
      "  UNION ALL\n"
      "  SELECT DISTINCT MOVIE.title FROM MOVIE WHERE MOVIE.duration <= 120\n"
      ") GROUP BY title HAVING COUNT(*) = 2";
  auto q1 = *ParseUnionGroup(text);
  auto q2 = ParseUnionGroup(q1.ToSql());
  ASSERT_TRUE(q2.ok()) << q1.ToSql();
  EXPECT_EQ(q1.ToSql(), q2->ToSql());
  EXPECT_TRUE(q2->branches[0].distinct);
}

TEST(UnionGroupTest, RejectsShapeViolations) {
  // GROUP BY must repeat the select list.
  EXPECT_FALSE(ParseUnionGroup(
                   "SELECT title FROM (SELECT title FROM MOVIE) "
                   "GROUP BY year HAVING COUNT(*) = 1")
                   .ok());
  // Branch arity mismatch.
  EXPECT_FALSE(ParseUnionGroup(
                   "SELECT title FROM ("
                   "SELECT title FROM MOVIE UNION ALL "
                   "SELECT title, year FROM MOVIE) "
                   "GROUP BY title HAVING COUNT(*) = 2")
                   .ok());
  // Count must be positive.
  EXPECT_FALSE(ParseUnionGroup(
                   "SELECT title FROM (SELECT title FROM MOVIE) "
                   "GROUP BY title HAVING COUNT(*) = 0")
                   .ok());
  // Missing UNION keyword chain / parenthesis.
  EXPECT_FALSE(ParseUnionGroup(
                   "SELECT title FROM SELECT title FROM MOVIE "
                   "GROUP BY title HAVING COUNT(*) = 1")
                   .ok());
}

TEST(PrinterTest, AliasOmittedWhenSameAsRelation) {
  TableRef t{"MOVIE", "MOVIE"};
  EXPECT_EQ(t.ToSql(), "MOVIE");
  TableRef t2{"MOVIE", "M"};
  EXPECT_EQ(t2.ToSql(), "MOVIE M");
}

}  // namespace
}  // namespace cqp::sql
