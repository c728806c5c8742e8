// DSL front-end tests: lexer, parser, error diagnostics, and the paper's
// Figure 4 element verbatim.
#include <gtest/gtest.h>

#include "dsl/lexer.h"
#include "dsl/parser.h"
#include "elements/library.h"

namespace adn::dsl {
namespace {

// --- Lexer -------------------------------------------------------------------

TEST(Lexer, KeywordsCaseInsensitiveIdentifiersNot) {
  auto tokens = Tokenize("select Select FROM my_Table");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "SELECT");
  EXPECT_EQ((*tokens)[2].text, "FROM");
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[3].text, "my_Table");
}

TEST(Lexer, NumbersIntAndFloat) {
  auto tokens = Tokenize("42 0.05 1e3 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIntLiteral);
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ((*tokens)[1].float_value, 0.05);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ((*tokens)[2].float_value, 1000.0);
}

TEST(Lexer, StringsWithEscapedQuotes) {
  auto tokens = Tokenize("'it''s fine'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ((*tokens)[0].text, "it's fine");
}

TEST(Lexer, CommentsSkipped) {
  auto tokens = Tokenize("a -- line comment\n/* block\ncomment */ b");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);  // a, b, EOF
  EXPECT_EQ((*tokens)[1].text, "b");
  EXPECT_EQ((*tokens)[1].location.line, 3);
}

TEST(Lexer, UnterminatedConstructsError) {
  EXPECT_FALSE(Tokenize("'no closing quote").ok());
  EXPECT_FALSE(Tokenize("/* never closed").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("a | b").ok());
  EXPECT_FALSE(Tokenize("a # b").ok());
}

TEST(Lexer, OperatorsAndArrow) {
  auto tokens = Tokenize("!= <> <= >= || -> - >");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kNe);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kNe);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kLe);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kGe);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kConcat);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kArrow);
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kMinus);
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kGt);
}

TEST(Lexer, TracksLineAndColumn) {
  auto tokens = Tokenize("a\n  b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].location.line, 1);
  EXPECT_EQ((*tokens)[1].location.line, 2);
  EXPECT_EQ((*tokens)[1].location.column, 3);
}

// --- Expression parsing ---------------------------------------------------------

TEST(Parser, PrecedenceMulOverAdd) {
  auto e = ParseExpression("1 + 2 * 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(1 + (2 * 3))");
}

TEST(Parser, PrecedenceComparisonOverAnd) {
  auto e = ParseExpression("a = 1 AND b > 2 OR NOT c");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(),
            "(((a = 1) AND (b > 2)) OR NOT c)");
}

TEST(Parser, ParenthesesOverride) {
  auto e = ParseExpression("(1 + 2) * 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "((1 + 2) * 3)");
}

TEST(Parser, UnaryMinusAndCalls) {
  auto e = ParseExpression("max(-x, abs(y) % 16)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "max(-x, (abs(y) % 16))");
}

TEST(Parser, QualifiedColumns) {
  auto e = ParseExpression("input.user = ac_tab.user");
  ASSERT_TRUE(e.ok());
  const auto* bin = (*e)->As<BinaryExpr>();
  ASSERT_NE(bin, nullptr);
  EXPECT_EQ(bin->lhs->As<ColumnRefExpr>()->table, "input");
  EXPECT_EQ(bin->rhs->As<ColumnRefExpr>()->table, "ac_tab");
}

TEST(Parser, LiteralKeywords) {
  auto e = ParseExpression("TRUE AND NOT FALSE");
  ASSERT_TRUE(e.ok());
  auto n = ParseExpression("NULL");
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE((*n)->As<LiteralExpr>()->value.is_null());
}

TEST(Parser, BadExpressions) {
  EXPECT_FALSE(ParseExpression("1 +").ok());
  EXPECT_FALSE(ParseExpression("(1").ok());
  EXPECT_FALSE(ParseExpression("f(1,").ok());
  EXPECT_FALSE(ParseExpression("SELECT").ok());
  EXPECT_FALSE(ParseExpression("").ok());
}

// --- Declarations -----------------------------------------------------------------

TEST(Parser, TableDecl) {
  auto p = ParseProgram(
      "STATE TABLE t (a INT PRIMARY KEY, b TEXT, c FLOAT, d BYTES, e BOOL);");
  ASSERT_TRUE(p.ok()) << p.error().ToString();
  ASSERT_EQ(p->tables.size(), 1u);
  const auto& schema = p->tables[0].schema;
  EXPECT_EQ(schema.size(), 5u);
  EXPECT_TRUE(schema.columns()[0].primary_key);
  EXPECT_EQ(schema.columns()[2].type, rpc::ValueType::kFloat);
}

TEST(Parser, Figure4AclVerbatim) {
  // The paper's Figure 4 processing logic, accepted as written (empty select
  // list means pass-through).
  auto p = ParseProgram(R"(
    STATE TABLE ac_tab (name TEXT PRIMARY KEY, permission TEXT);
    ELEMENT AccessControl ON REQUEST {
      INPUT (name TEXT);
      SELECT FROM input JOIN ac_tab ON input.name = ac_tab.name
        WHERE ac_tab.permission = 'W';
    }
  )");
  ASSERT_TRUE(p.ok()) << p.error().ToString();
  const auto& element = p->elements[0];
  ASSERT_EQ(element.body.size(), 1u);
  const auto& select = std::get<SelectStmt>(element.body[0]);
  ASSERT_EQ(select.items.size(), 1u);
  EXPECT_TRUE(select.items[0].is_star);
  ASSERT_TRUE(select.join.has_value());
  EXPECT_EQ(select.join->table, "ac_tab");
  ASSERT_NE(select.where, nullptr);
}

TEST(Parser, ElementDefaultsAndDropClause) {
  auto p = ParseProgram(R"(
    ELEMENT E {
      INPUT (x INT);
      ON DROP SILENT;
      SELECT * FROM input WHERE x > 0;
    }
  )");
  ASSERT_TRUE(p.ok()) << p.error().ToString();
  EXPECT_EQ(p->elements[0].direction, Direction::kRequest);
  EXPECT_EQ(p->elements[0].on_drop, DropBehavior::kSilent);
}

TEST(Parser, AbortMessageCaptured) {
  auto p = ParseProgram(R"(
    ELEMENT E ON BOTH {
      INPUT (x INT);
      ON DROP ABORT 'no entry';
      SELECT * FROM input WHERE x > 0;
    }
  )");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->elements[0].direction, Direction::kBoth);
  EXPECT_EQ(p->elements[0].abort_message, "no entry");
}

TEST(Parser, InsertUpdateDelete) {
  auto p = ParseProgram(R"(
    STATE TABLE t (a INT PRIMARY KEY, b INT);
    ELEMENT E {
      INPUT (x INT);
      INSERT INTO t VALUES (x, 0);
      INSERT INTO t (a) VALUES (x + 1);
      UPDATE t SET b = b + 1 WHERE a = x;
      DELETE FROM t WHERE b > 10;
      SELECT * FROM input;
    }
  )");
  ASSERT_TRUE(p.ok()) << p.error().ToString();
  EXPECT_EQ(p->elements[0].body.size(), 5u);
}

TEST(Parser, InsertFromSelect) {
  auto p = ParseProgram(R"(
    STATE TABLE t (a INT, b INT);
    ELEMENT E {
      INPUT (x INT);
      INSERT INTO t SELECT x AS a, x * 2 AS b FROM input;
      SELECT * FROM input;
    }
  )");
  ASSERT_TRUE(p.ok()) << p.error().ToString();
  const auto& ins = std::get<InsertStmt>(p->elements[0].body[0]);
  ASSERT_NE(ins.from_select, nullptr);
  EXPECT_EQ(ins.from_select->items.size(), 2u);
}

TEST(Parser, FilterDecl) {
  auto p = ParseProgram(
      "FILTER F ON REQUEST USING rate_limit(rps => 100, burst => 5);");
  ASSERT_TRUE(p.ok()) << p.error().ToString();
  ASSERT_EQ(p->filters.size(), 1u);
  EXPECT_EQ(p->filters[0].op, "rate_limit");
  ASSERT_EQ(p->filters[0].args.size(), 2u);
  EXPECT_EQ(p->filters[0].args[0].first, "rps");
  EXPECT_EQ(p->filters[0].args[0].second.AsInt(), 100);
}

TEST(Parser, FilterArgLiterals) {
  auto p = ParseProgram(
      "FILTER F USING circuit_breaker(error_threshold => 0.5, "
      "window => -1);");
  ASSERT_TRUE(p.ok()) << p.error().ToString();
  EXPECT_DOUBLE_EQ(p->filters[0].args[0].second.AsFloat(), 0.5);
  EXPECT_EQ(p->filters[0].args[1].second.AsInt(), -1);
}

TEST(Parser, ChainWithConstraints) {
  auto p = ParseProgram(R"(
    ELEMENT A { INPUT (x INT); SELECT * FROM input; }
    ELEMENT B { INPUT (x INT); SELECT * FROM input; }
    CHAIN c FOR CALLS svc1 -> svc2 {
      A AT SENDER,
      B AT TRUSTED
    }
  )");
  ASSERT_TRUE(p.ok()) << p.error().ToString();
  ASSERT_EQ(p->chains.size(), 1u);
  EXPECT_EQ(p->chains[0].caller_service, "svc1");
  EXPECT_EQ(p->chains[0].callee_service, "svc2");
  EXPECT_EQ(p->chains[0].elements[0].location, LocationConstraint::kSender);
  EXPECT_EQ(p->chains[0].elements[1].location, LocationConstraint::kTrusted);
}

// --- Error diagnostics (message includes location) --------------------------------

struct BadProgramCase {
  const char* name;
  const char* source;
  const char* expect_substring;
};

// Print the case by name: gtest's default byte dump of the struct would show
// the (ASLR-randomized) pointer values, which end up in the ctest test name.
void PrintTo(const BadProgramCase& c, std::ostream* os) { *os << c.name; }

class ParserErrors : public ::testing::TestWithParam<BadProgramCase> {};

TEST_P(ParserErrors, RejectsWithUsefulMessage) {
  auto p = ParseProgram(GetParam().source);
  ASSERT_FALSE(p.ok()) << "should have rejected: " << GetParam().name;
  EXPECT_NE(p.error().message().find(GetParam().expect_substring),
            std::string::npos)
      << "got: " << p.error().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    ::testing::Values(
        BadProgramCase{"empty element", "ELEMENT E { }", "empty body"},
        BadProgramCase{"missing semicolon",
                       "ELEMENT E { SELECT * FROM input }", "';'"},
        BadProgramCase{"dup element",
                       "ELEMENT E { INPUT (x INT); SELECT * FROM input; } "
                       "ELEMENT E { INPUT (x INT); SELECT * FROM input; }",
                       "duplicate element"},
        BadProgramCase{"dup table",
                       "STATE TABLE t (a INT); STATE TABLE t (a INT);",
                       "duplicate table"},
        BadProgramCase{"bad type", "STATE TABLE t (a TENSOR);",
                       "unknown type"},
        BadProgramCase{"computed needs alias",
                       "ELEMENT E { INPUT (x INT); SELECT x + 1 FROM input; }",
                       "AS"},
        BadProgramCase{"join needs equality",
                       "ELEMENT E { INPUT (x INT); SELECT * FROM input JOIN t "
                       "ON x > 1; }",
                       "equality"},
        BadProgramCase{"chain arrow", "CHAIN c FOR CALLS a b { E }", "'->'"},
        BadProgramCase{"stray token", "42", "expected STATE"},
        BadProgramCase{"bad location constraint",
                       "ELEMENT E { INPUT (x INT); SELECT * FROM input; } "
                       "CHAIN c FOR CALLS a -> b { E AT NOWHERE }",
                       "SENDER"}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

// --- Library sources all parse -------------------------------------------------

TEST(Library, AllProgramsParse) {
  for (const std::string source :
       {elements::Fig5ProgramSource(), elements::Fig2ProgramSource(),
        elements::FullLibrarySource()}) {
    auto p = ParseProgram(source);
    EXPECT_TRUE(p.ok()) << p.status().ToString() << "\nsource:\n" << source;
  }
}

TEST(Library, DslSourcesAreTensOfLines) {
  // The paper's §6 claim baseline: elements are tens of lines of SQL.
  for (std::string_view source :
       {elements::LoggingSql(), elements::AclSql(), elements::FaultSql(),
        elements::HashLbSql(), elements::CompressSql()}) {
    int lines = 0;
    for (char c : source) {
      if (c == '\n') ++lines;
    }
    EXPECT_LT(lines, 15) << source;
  }
}

}  // namespace
}  // namespace adn::dsl
