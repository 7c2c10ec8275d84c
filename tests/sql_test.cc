#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mutation_testing.h"
#include "sql/binder.h"
#include "workload/ssb.h"

namespace costdb {
namespace {

TEST(LexerTest, BasicTokens) {
  auto r = Tokenize("SELECT a.b, 42, 3.5, 'it''s' FROM t WHERE x <= 7;");
  ASSERT_TRUE(r.ok());
  const auto& toks = *r;
  EXPECT_TRUE(TokenIs(toks[0], "select"));
  EXPECT_EQ(toks[1].text, "a");
  EXPECT_EQ(toks[2].text, ".");
  EXPECT_EQ(toks[3].text, "b");
  EXPECT_EQ(toks[5].int_val, 42);
  EXPECT_DOUBLE_EQ(toks[7].float_val, 3.5);
  EXPECT_EQ(toks[9].text, "it's");
  EXPECT_EQ(toks.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, TwoCharOperators) {
  auto r = Tokenize("a <= b >= c <> d != e");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[1].text, "<=");
  EXPECT_EQ((*r)[3].text, ">=");
  EXPECT_EQ((*r)[5].text, "<>");
  EXPECT_EQ((*r)[7].text, "<>");  // != normalized
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Tokenize("SELECT 'oops").status().IsInvalidArgument());
  EXPECT_TRUE(Tokenize("SELECT @x").status().IsInvalidArgument());
}

TEST(LexerTest, OutOfRangeNumericLiteralsAreInvalidArgument) {
  const std::string prefix = "SELECT a FROM t WHERE a = ";
  const std::vector<std::string> literals = {
      "99999999999999999999",                   // 20 digits: past int64
      "1" + std::string(400, '0') + ".5",       // overflows a double
      "0." + std::string(400, '0') + "1",       // underflows a double
  };
  for (const std::string& literal : literals) {
    const std::string sql = prefix + literal;
    auto tokens = Tokenize(sql);
    ASSERT_TRUE(tokens.status().IsInvalidArgument())
        << literal.substr(0, 24) << ": " << tokens.status().ToString();
    EXPECT_NE(tokens.status().ToString().find(
                  "offset " + std::to_string(prefix.size())),
              std::string::npos)
        << tokens.status().ToString();
    EXPECT_TRUE(ParseQuery(sql).status().IsInvalidArgument());
  }
  // The edges still lex.
  auto max = Tokenize(prefix + "9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ((*max)[7].int_val, INT64_MAX);
  auto tiny = Tokenize(prefix + "0.5");
  ASSERT_TRUE(tiny.ok());
  EXPECT_DOUBLE_EQ((*tiny)[7].float_val, 0.5);
}

TEST(ParserTest, SimpleSelect) {
  auto r = ParseQuery("SELECT a, b FROM t WHERE a > 5 ORDER BY b DESC LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->select_items.size(), 2u);
  EXPECT_EQ(r->from.size(), 1u);
  EXPECT_EQ(r->from[0].table, "t");
  ASSERT_TRUE(r->where != nullptr);
  ASSERT_EQ(r->order_by.size(), 1u);
  EXPECT_TRUE(r->order_by[0].descending);
  EXPECT_EQ(r->limit, 3);
}

TEST(ParserTest, SelectStarAndAliases) {
  auto r = ParseQuery("SELECT * FROM orders o, customer AS c");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->select_star);
  ASSERT_EQ(r->from.size(), 2u);
  EXPECT_EQ(r->from[0].alias, "o");
  EXPECT_EQ(r->from[1].alias, "c");
}

TEST(ParserTest, JoinSyntax) {
  auto r = ParseQuery(
      "SELECT o.id FROM orders o JOIN customer c ON o.cid = c.id "
      "INNER JOIN nation n ON c.nid = n.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->from.size(), 3u);
  EXPECT_EQ(r->join_conditions.size(), 2u);
}

TEST(ParserTest, GroupByHaving) {
  auto r = ParseQuery(
      "SELECT k, sum(v) AS total FROM t GROUP BY k HAVING sum(v) > 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->group_by.size(), 1u);
  ASSERT_TRUE(r->having != nullptr);
  EXPECT_EQ(r->select_items[1].alias, "total");
}

TEST(ParserTest, InBetweenLikeDate) {
  auto r = ParseQuery(
      "SELECT a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 5 AND 9 "
      "AND s LIKE 'abc%' AND d >= DATE '1995-01-01'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(ParserTest, LikeEscapeClause) {
  auto r = ParseQuery("SELECT a FROM t WHERE s LIKE '50!%%' ESCAPE '!'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->where, nullptr);
  EXPECT_EQ(r->where->kind, ParsedExpr::Kind::kBinary);
  EXPECT_EQ(r->where->str_val, "LIKE");
  ASSERT_EQ(r->where->children.size(), 3u);  // input, pattern, escape
  EXPECT_EQ(r->where->children[2]->kind, ParsedExpr::Kind::kString);
  EXPECT_EQ(r->where->children[2]->str_val, "!");
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto r = ParseQuery("SELECT a + b * c FROM t");
  ASSERT_TRUE(r.ok());
  const ParsedExpr& e = *r->select_items[0].expr;
  ASSERT_EQ(e.kind, ParsedExpr::Kind::kBinary);
  EXPECT_EQ(e.str_val, "+");
  EXPECT_EQ(e.children[1]->str_val, "*");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("SELECT FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT a t").ok());  // missing FROM
  EXPECT_FALSE(ParseQuery("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t extra junk").ok());
}

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto orders = std::make_shared<Table>(
        "orders", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                         {"cid", LogicalType::kInt64},
                                         {"amount", LogicalType::kDouble},
                                         {"odate", LogicalType::kDate}});
    auto customer = std::make_shared<Table>(
        "customer", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                           {"name", LogicalType::kVarchar}});
    meta_.RegisterTable(orders);
    meta_.RegisterTable(customer);
  }

  MetadataService meta_;
};

TEST_F(BinderTest, ResolvesQualifiedAndUnqualified) {
  Binder binder(&meta_);
  auto q = binder.BindSql("SELECT o.amount, odate FROM orders o");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_exprs[0]->column, "o.amount");
  EXPECT_EQ(q->select_exprs[0]->type, LogicalType::kDouble);
  EXPECT_EQ(q->select_exprs[1]->column, "o.odate");
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  Binder binder(&meta_);
  auto q = binder.BindSql("SELECT id FROM orders, customer");
  EXPECT_TRUE(q.status().IsInvalidArgument()) << q.status().ToString();
}

TEST_F(BinderTest, UnknownTableAndColumn) {
  Binder binder(&meta_);
  EXPECT_TRUE(binder.BindSql("SELECT x FROM nope").status().IsNotFound());
  EXPECT_TRUE(
      binder.BindSql("SELECT missing FROM orders").status().IsNotFound());
}

TEST_F(BinderTest, JoinConditionsBecomeFilters) {
  Binder binder(&meta_);
  auto q = binder.BindSql(
      "SELECT o.id FROM orders o JOIN customer c ON o.cid = c.id "
      "WHERE o.amount > 10 AND c.name = 'bob'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->relations.size(), 2u);
  EXPECT_EQ(q->filters.size(), 3u);  // join cond + two WHERE conjuncts
}

TEST_F(BinderTest, AggregateExtraction) {
  Binder binder(&meta_);
  auto q = binder.BindSql(
      "SELECT cid, sum(amount) AS total, count(*) FROM orders "
      "GROUP BY cid HAVING sum(amount) > 100 ORDER BY total DESC");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->is_aggregate());
  // sum(amount) deduplicated between SELECT and HAVING.
  EXPECT_EQ(q->aggregates.size(), 2u);
  EXPECT_EQ(q->group_by.size(), 1u);
  ASSERT_TRUE(q->having != nullptr);
  // Select list: group col + two agg refs.
  EXPECT_EQ(q->select_exprs[0]->column, "orders.cid");
  EXPECT_EQ(q->select_exprs[1]->kind, Expr::Kind::kColumn);
}

TEST_F(BinderTest, LikeEscapeBinding) {
  Binder binder(&meta_);
  auto q = binder.BindSql(
      "SELECT name FROM customer WHERE name LIKE '100!%%' ESCAPE '!'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->filters.size(), 1u);
  const ExprPtr& f = q->filters[0];
  EXPECT_EQ(f->kind, Expr::Kind::kLike);
  EXPECT_EQ(f->like_escape, '!');
  EXPECT_NE(f->ToString().find("ESCAPE '!'"), std::string::npos)
      << f->ToString();
  // Without the clause the escape stays unset.
  auto plain = binder.BindSql("SELECT name FROM customer WHERE name LIKE 'a%'");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->filters[0]->like_escape, '\0');
}

TEST_F(BinderTest, LikeEscapeErrors) {
  Binder binder(&meta_);
  // Escape must be one character.
  EXPECT_TRUE(binder
                  .BindSql("SELECT name FROM customer WHERE name LIKE 'a%' "
                           "ESCAPE '!!'")
                  .status()
                  .IsInvalidArgument());
  // In the pattern, the escape must precede %, _, or itself.
  EXPECT_TRUE(binder
                  .BindSql("SELECT name FROM customer WHERE name LIKE 'a!b' "
                           "ESCAPE '!'")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(binder
                  .BindSql("SELECT name FROM customer WHERE name LIKE 'ab!' "
                           "ESCAPE '!'")
                  .status()
                  .IsInvalidArgument());
  // An escaped escape is fine.
  EXPECT_TRUE(binder
                  .BindSql("SELECT name FROM customer WHERE name LIKE 'a!!b' "
                           "ESCAPE '!'")
                  .ok());
}

TEST_F(BinderTest, NonGroupedColumnRejected) {
  Binder binder(&meta_);
  auto q = binder.BindSql("SELECT amount, count(*) FROM orders GROUP BY cid");
  EXPECT_TRUE(q.status().IsInvalidArgument()) << q.status().ToString();
}

TEST_F(BinderTest, TypeMismatchRejected) {
  Binder binder(&meta_);
  EXPECT_FALSE(binder.BindSql("SELECT id FROM orders WHERE id = 'x'").ok());
  EXPECT_FALSE(binder.BindSql("SELECT sum(name) FROM customer").ok());
}

TEST_F(BinderTest, DesugarsInAndBetween) {
  Binder binder(&meta_);
  auto q = binder.BindSql(
      "SELECT id FROM orders WHERE cid IN (1,2) AND amount BETWEEN 5 AND 9");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // IN -> OR (1 conjunct), BETWEEN -> 2 conjuncts.
  EXPECT_EQ(q->filters.size(), 3u);
  EXPECT_EQ(q->filters[0]->kind, Expr::Kind::kOr);
}

TEST_F(BinderTest, DateLiteralBinding) {
  Binder binder(&meta_);
  auto q = binder.BindSql(
      "SELECT id FROM orders WHERE odate < DATE '2020-06-01'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::string col;
  CompareOp op;
  Value constant;
  ASSERT_TRUE(MatchColumnCompareConstant(q->filters[0], &col, &op, &constant));
  EXPECT_EQ(col, "orders.odate");
  EXPECT_TRUE(constant.is_int());
}

TEST_F(BinderTest, SelectStarExpandsAllRelations) {
  Binder binder(&meta_);
  auto q = binder.BindSql("SELECT * FROM orders, customer");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select_exprs.size(), 6u);
}

// --------------------------------------------- SQL front-end mutations

/// The statements the tests above lex, parse and bind: mutation seeds next
/// to the SSB suite.
const char* const kFrontEndInputs[] = {
    "SELECT a.b, 42, 3.5, 'it''s' FROM t WHERE x <= 7;",
    "a <= b >= c <> d != e",
    "SELECT a, b FROM t WHERE a > 5 ORDER BY b DESC LIMIT 3",
    "SELECT * FROM orders o, customer AS c",
    "SELECT o.id FROM orders o JOIN customer c ON o.cid = c.id "
    "INNER JOIN nation n ON c.nid = n.id",
    "SELECT k, sum(v) AS total FROM t GROUP BY k HAVING sum(v) > 10",
    "SELECT a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 5 AND 9 "
    "AND s LIKE 'abc%' AND d >= DATE '1995-01-01'",
    "SELECT a FROM t WHERE s LIKE '50!%%' ESCAPE '!'",
    "SELECT a + b * c FROM t",
    "SELECT o.amount, odate FROM orders o",
    "SELECT cid, sum(amount) AS total, count(*) FROM orders "
    "GROUP BY cid HAVING sum(amount) > 100 ORDER BY total DESC",
    "SELECT name FROM customer WHERE name LIKE '100!%%' ESCAPE '!'",
    "SELECT id FROM orders WHERE cid IN (1,2) AND amount BETWEEN 5 AND 9",
    "SELECT id FROM orders WHERE odate < DATE '2020-06-01'",
};

/// Fixed-seed mutations of SQL text through the whole front end (lexer,
/// parser, binder over an SSB catalog): every mutant must come back as a
/// Status or a bound query — no exception, no crash. Mutants are bound,
/// never planned: a mutated FROM list can multiply the relations.
TEST(SqlMutationTest, EveryMutantBindsOrFailsWithAStatus) {
  MetadataService meta;
  SsbOptions data;
  data.scale = 0.01;
  LoadSsb(&meta, data);
  Binder binder(&meta);

  std::vector<std::string> seeds;
  for (const QueryTemplate& q : SsbQueries()) seeds.push_back(q.sql);
  for (const char* sql : kFrontEndInputs) seeds.push_back(sql);
  const char* const kTokens[] = {"(",    ")",       "'",      "?",
                                 ",",    "AND",     "LIKE",   "ESCAPE",
                                 "IN (", "BETWEEN", "DATE",   "LIMIT"};
  constexpr size_t kTokenCount = sizeof(kTokens) / sizeof(kTokens[0]);

  Mutator rng{0x5C1'F0A7ULL};
  auto mutate = [&](std::string* sql) {
    const size_t pos = rng.Below(sql->size() + 1);
    switch (rng.Below(5)) {
      case 0:  // flip bits of one byte
        if (!sql->empty()) {
          const size_t at = rng.Below(sql->size());
          (*sql)[at] = static_cast<char>((*sql)[at] ^ (1 + rng.Below(255)));
        }
        break;
      case 1:  // delete a span
        sql->erase(pos, 1 + rng.Below(12));
        break;
      case 2:  // duplicate a span
        sql->insert(pos, sql->substr(pos, 1 + rng.Below(24)));
        break;
      case 3: {  // insert a token
        std::string token = kTokens[rng.Below(kTokenCount)];
        sql->insert(pos, " " + token + " ");
        break;
      }
      default: {  // insert a run of 1-40 digits
        std::string digits(1 + rng.Below(40), '0');
        for (char& d : digits) d = static_cast<char>('0' + rng.Below(10));
        sql->insert(pos, digits);
        break;
      }
    }
  };

  constexpr size_t kMutations = 20000;
  size_t bound = 0;
  std::map<Status::Code, size_t> rejected;
  for (size_t round = 0; round < kMutations; ++round) {
    std::string sql = seeds[round % seeds.size()];
    const size_t edits = 1 + rng.Below(3);
    for (size_t e = 0; e < edits; ++e) mutate(&sql);
    auto q = binder.BindSql(sql);
    if (q.ok()) {
      ++bound;
      continue;
    }
    EXPECT_FALSE(q.status().IsInternal())
        << q.status().ToString() << " for: " << sql;
    ++rejected[q.status().code()];
  }
  EXPECT_GT(bound, 0u);
  EXPECT_GT(rejected[Status::Code::kInvalidArgument], 0u);
  EXPECT_GT(rejected[Status::Code::kNotFound], 0u);
}

}  // namespace
}  // namespace costdb
