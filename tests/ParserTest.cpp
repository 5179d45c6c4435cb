//===--- ParserTest.cpp - Tests for the core-language parser --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <climits>

using namespace mix;

namespace {

/// Parses and returns the printed form, or "<error>" on failure.
std::string parsePrint(std::string_view Source) {
  AstContext Ctx;
  DiagnosticEngine Diags;
  const Expr *E = parseExpression(Source, Ctx, Diags);
  if (!E)
    return "<error>";
  return printExpr(E);
}

} // namespace

TEST(ParserTest, Literals) {
  EXPECT_EQ(parsePrint("42"), "42");
  EXPECT_EQ(parsePrint("true"), "true");
  EXPECT_EQ(parsePrint("false"), "false");
  EXPECT_EQ(parsePrint("x"), "x");
}

TEST(ParserTest, ArithmeticAssociatesLeft) {
  EXPECT_EQ(parsePrint("1 + 2 + 3"), "((1 + 2) + 3)");
  EXPECT_EQ(parsePrint("1 - 2 - 3"), "((1 - 2) - 3)");
  EXPECT_EQ(parsePrint("1 + 2 - 3"), "((1 + 2) - 3)");
}

TEST(ParserTest, ComparisonsBindLooserThanArithmetic) {
  EXPECT_EQ(parsePrint("1 + 2 = 3"), "((1 + 2) = 3)");
  EXPECT_EQ(parsePrint("x < y + 1"), "(x < (y + 1))");
  EXPECT_EQ(parsePrint("x <= 0"), "(x <= 0)");
}

TEST(ParserTest, BooleanPrecedence) {
  EXPECT_EQ(parsePrint("a and b or c"), "((a and b) or c)");
  EXPECT_EQ(parsePrint("not a and b"), "((not a) and b)");
  EXPECT_EQ(parsePrint("x = 1 and y = 2"), "((x = 1) and (y = 2))");
}

TEST(ParserTest, Conditional) {
  EXPECT_EQ(parsePrint("if c then 1 else 2"), "(if c then 1 else 2)");
  // if extends to the right: `else b + 1` binds the sum into the branch.
  EXPECT_EQ(parsePrint("if c then a else b + 1"),
            "(if c then a else (b + 1))");
}

TEST(ParserTest, LetBinding) {
  EXPECT_EQ(parsePrint("let x = 1 in x + 2"), "(let x = 1 in (x + 2))");
  EXPECT_EQ(parsePrint("let x : int = 1 in x"), "(let x : int = 1 in x)");
  EXPECT_EQ(parsePrint("let r : int ref = ref 0 in !r"),
            "(let r : int ref = (ref 0) in (!r))");
}

TEST(ParserTest, References) {
  EXPECT_EQ(parsePrint("ref 1"), "(ref 1)");
  EXPECT_EQ(parsePrint("!x"), "(!x)");
  EXPECT_EQ(parsePrint("x := 1"), "(x := 1)");
  // := binds looser than +: the whole sum is assigned.
  EXPECT_EQ(parsePrint("x := !x + 1"), "(x := ((!x) + 1))");
}

TEST(ParserTest, SequencingIsRightAssociativeAndLoosest) {
  EXPECT_EQ(parsePrint("a; b; c"), "(a; (b; c))");
  EXPECT_EQ(parsePrint("x := 1; y := 2"), "((x := 1); (y := 2))");
}

TEST(ParserTest, Blocks) {
  EXPECT_EQ(parsePrint("{t 1 + 2 t}"), "{t (1 + 2) t}");
  EXPECT_EQ(parsePrint("{s x s}"), "{s x s}");
  EXPECT_EQ(parsePrint("{t {s 1 s} t}"), "{t {s 1 s} t}");
  // The paper's running example shape: a symbolic block around typed code.
  EXPECT_EQ(parsePrint("{s if c then {t 1 t} else {t 2 t} s}"),
            "{s (if c then {t 1 t} else {t 2 t}) s}");
}

TEST(ParserTest, FunctionsAndApplication) {
  EXPECT_EQ(parsePrint("fun (x: int) : int -> x + 1"),
            "(fun (x: int) : int -> (x + 1))");
  EXPECT_EQ(parsePrint("f x y"), "((f x) y)");
  EXPECT_EQ(parsePrint("f (x + 1)"), "(f (x + 1))");
  EXPECT_EQ(parsePrint("let id = fun (x: int) : int -> x in id 3"),
            "(let id = (fun (x: int) : int -> x) in (id 3))");
}

TEST(ParserTest, FunctionTypesParse) {
  EXPECT_EQ(parsePrint("fun (f: int -> bool) : bool -> f 0"),
            "(fun (f: int -> bool) : bool -> (f 0))");
  EXPECT_EQ(parsePrint("fun (f: (int -> int) -> bool) : bool -> f 1"),
            "(fun (f: (int -> int) -> bool) : bool -> (f 1))");
  EXPECT_EQ(parsePrint("fun (r: int ref ref) : int -> !(!r)"),
            "(fun (r: int ref ref) : int -> (!(!r)))");
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  EXPECT_EQ(parsePrint("(1 + 2) - 3"), "((1 + 2) - 3)");
  EXPECT_EQ(parsePrint("1 + (2 - 3)"), "(1 + (2 - 3))");
}

TEST(ParserTest, RoundTripThroughPrinter) {
  const char *Programs[] = {
      "let x = ref 0 in (x := 1; !x)",
      "{s if b then {t 1 t} else {t 0 t} s}",
      "let f = fun (x: int) : int -> if x < 0 then 0 - x else x in "
      "f (0 - 5)",
      "{t let y = {s 1 + 2 s} in y t}",
  };
  for (const char *P : Programs) {
    std::string Once = parsePrint(P);
    ASSERT_NE(Once, "<error>") << P;
    std::string Twice = parsePrint(Once);
    EXPECT_EQ(Once, Twice) << P;
  }
}

TEST(ParserTest, NegativeLiteralsPrintAsParsableText) {
  AstContext Ctx;
  EXPECT_EQ(printExpr(Ctx.make<IntLitExpr>(SourceLoc(), -2)), "(0 - 2)");
  EXPECT_EQ(printExpr(Ctx.make<RefExpr>(
                SourceLoc(), Ctx.make<IntLitExpr>(SourceLoc(), -2))),
            "(ref (0 - 2))");
  EXPECT_EQ(printExpr(Ctx.make<IntLitExpr>(SourceLoc(), LLONG_MIN)),
            "((0 - 9223372036854775807) - 1)");
  EXPECT_EQ(parsePrint("((0 - 9223372036854775807) - 1)"),
            "((0 - 9223372036854775807) - 1)");
}

TEST(ParserTest, GeneratedProgramsRoundTripThroughPrinter) {
  // ProgramGen builds ASTs directly, with literals in -4..4, typed and
  // symbolic blocks, references and functions: printing must give text
  // the parser accepts, and that text must be a fixed point.
  for (unsigned Seed = 0; Seed != 300; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    AstContext Ctx;
    testgen::ProgramGenerator Gen(Ctx, Rng, /*AllowBlocks=*/true);
    testgen::ProgramGenerator::Scope Scope;
    Scope.IntVars = {"x", "y"};
    Scope.BoolVars = {"b"};
    Scope.RefVars = {"p"};
    const Expr *Program =
        Rng() % 2 ? Gen.genInt(Scope, 4) : Gen.genBool(Scope, 4);
    std::string Printed = printExpr(Program);
    std::string Reprinted = parsePrint(Printed);
    ASSERT_NE(Reprinted, "<error>") << Printed;
    EXPECT_EQ(Reprinted, Printed);
  }
}

TEST(ParserTest, Errors) {
  EXPECT_EQ(parsePrint(""), "<error>");
  EXPECT_EQ(parsePrint("1 +"), "<error>");
  EXPECT_EQ(parsePrint("let = 3 in x"), "<error>");
  EXPECT_EQ(parsePrint("if c then 1"), "<error>");
  EXPECT_EQ(parsePrint("{t 1 s}"), "<error>");
  EXPECT_EQ(parsePrint("(1"), "<error>");
  // Note: "1 2" parses as the application (1 2); the type checker rejects
  // it later, so it is not a parse error.
  EXPECT_EQ(parsePrint("1 2"), "(1 2)");
}

TEST(ParserTest, ErrorProducesDiagnostic) {
  AstContext Ctx;
  DiagnosticEngine Diags;
  const Expr *E = parseExpression("let x 1 in x", Ctx, Diags);
  EXPECT_EQ(E, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserTest, LexerErrorFailsTheParse) {
  // An unterminated comment yields no Error token — the stream just ends
  // after "1 + 2" — but the program must still be rejected.
  AstContext Ctx;
  DiagnosticEngine Diags;
  const Expr *E = parseExpression("1 + 2 (* x", Ctx, Diags);
  EXPECT_EQ(E, nullptr);
  ASSERT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].ID, DiagID::LexError);
  EXPECT_EQ(Diags.diagnostics()[0].Message, "unterminated comment");
  EXPECT_EQ(parsePrint("1 + 2 (* x"), "<error>");
  EXPECT_EQ(parsePrint("1 + 2 (* x *)"), "(1 + 2)");
}
