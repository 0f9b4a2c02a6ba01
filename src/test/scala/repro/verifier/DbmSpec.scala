package repro.verifier

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ir.Canon
import repro.core.ir.Canon._
import repro.core.ir.Ir._
import repro.verifier.Entailment.{entails, mutual}
import scala.util.Random

class DbmSpec extends AnyFunSuite {

  private val x = ColRef("a0", "x")
  private val y = ColRef("a0", "y")
  private val z = ColRef("a1", "z")

  private def lt(c: ColRef, v: Double)  = Canon.normalize(Pred(Col(c), Lt, Lit(v)))
  private def gt(c: ColRef, v: Double)  = Canon.normalize(Pred(Col(c), Gt, Lit(v)))
  private def ge(c: ColRef, v: Double)  = Canon.normalize(Pred(Col(c), Ge, Lit(v)))
  private def le(c: ColRef, v: Double)  = Canon.normalize(Pred(Col(c), Le, Lit(v)))
  private def eqc(c: ColRef, v: Double) = Canon.normalize(Pred(Col(c), Eq, Lit(v)))
  private def diff(a: ColRef, op: CmpOp, b: ColRef, v: Double) =
    Canon.normalize(Pred(Col(a), op, Add(Col(b), Lit(v))))

  test("empty system is satisfiable") {
    assert(DiffLogic.satisfiable(Seq.empty))
  }

  test("x < 5 ∧ x > 3 is satisfiable") {
    assert(DiffLogic.satisfiable(Seq(lt(x, 5), gt(x, 3))))
  }

  test("x < 5 ∧ x > 5 is unsatisfiable") {
    assert(!DiffLogic.satisfiable(Seq(lt(x, 5), gt(x, 5))))
  }

  test("strictness: x <= 5 ∧ x >= 5 is satisfiable, x < 5 ∧ x >= 5 is not") {
    assert(DiffLogic.satisfiable(Seq(le(x, 5), ge(x, 5))))
    assert(!DiffLogic.satisfiable(Seq(lt(x, 5), ge(x, 5))))
  }

  test("real semantics: 3 < x < 4 is satisfiable (no integer gap assumption)") {
    assert(DiffLogic.satisfiable(Seq(gt(x, 3), lt(x, 4))))
  }

  test("transitive chain contradiction: x < y, y < z, z < x") {
    val s = Seq(diff(x, Lt, y, 0), diff(y, Lt, z, 0), diff(z, Lt, x, 0))
    assert(!DiffLogic.satisfiable(s))
  }

  test("non-strict cycle of equalities is satisfiable") {
    val s = Seq(diff(x, Le, y, 0), diff(y, Le, z, 0), diff(z, Le, x, 0))
    assert(DiffLogic.satisfiable(s))
  }

  test("constant propagation through equality: x = 5 ∧ x = y ∧ y > 6 unsat") {
    val s = Seq(eqc(x, 5), Canon.normalize(Pred(Col(x), Eq, Col(y))), gt(y, 6))
    assert(!DiffLogic.satisfiable(s))
  }

  test("implies: x > 10 implies x > 5") {
    assert(entails(Seq(gt(x, 10)), gt(x, 5)))
    assert(!entails(Seq(gt(x, 5)), gt(x, 10)))
  }

  test("implies: Figure-1 derivation {x > y + 10, y > 10} ⟹ x > 20") {
    val p = Seq(diff(x, Gt, y, 10), gt(y, 10))
    assert(entails(p, gt(x, 20)))
    assert(!entails(p, gt(x, 21)))
  }

  test("implies equality from two inequalities") {
    val p = Seq(le(x, 5), ge(x, 5))
    assert(entails(p, eqc(x, 5)))
  }

  test("equivalent: Figure-1 predicate sets") {
    // {x > y + 10, y > 10}  vs  {y + 10 < x, y + 10 > 20, x > 20}
    val p1 = Seq(diff(x, Gt, y, 10), gt(y, 10))
    val p2 = Seq(
      Canon.normalize(Pred(Add(Col(y), Lit(10)), Lt, Col(x))),
      Canon.normalize(Pred(Add(Col(y), Lit(10)), Gt, Lit(20))),
      gt(x, 20))
    assert(mutual(p1, p2))
  }

  test("equivalent: both unsatisfiable sets are equivalent") {
    assert(mutual(Seq(lt(x, 0), gt(x, 1)), Seq(gt(y, 5), lt(y, 2))))
  }

  test("not equivalent: sat vs unsat") {
    assert(!mutual(Seq(lt(x, 0)), Seq(lt(x, 0), gt(x, 1))))
  }

  test("not equivalent: different bounds") {
    assert(!mutual(Seq(lt(x, 5)), Seq(lt(x, 6))))
  }

  test("redundant detects implied conjunct") {
    val p = Vector(diff(x, Gt, y, 10), gt(y, 10), gt(x, 20))
    assert(DiffLogic.redundant(p, 2))
    assert(!DiffLogic.redundant(p, 0))
    assert(!DiffLogic.redundant(p, 1))
  }

  test("soundness on random systems: satisfying assignments respect implications") {
    val rng = new Random(7)
    val cols = Vector(x, y, z)
    for (iter <- 0 until 200) {
      // Build a system consistent with a random assignment => must be SAT.
      val assign = cols.map(_ -> (rng.nextInt(41) - 20).toDouble).toMap
      val preds = Vector.fill(1 + rng.nextInt(5)) {
        val a = cols(rng.nextInt(3))
        if (rng.nextBoolean()) {
          val slack = rng.nextInt(10) + 1
          if (rng.nextBoolean()) lt(a, assign(a) + slack) else gt(a, assign(a) - slack)
        } else {
          val b = cols(rng.nextInt(3))
          if (b == a) le(a, assign(a))
          else {
            val d = assign(a) - assign(b)
            if (rng.nextBoolean()) diff(a, Le, b, d) else diff(a, Ge, b, d)
          }
        }
      }
      assert(DiffLogic.satisfiable(preds), s"iter $iter: witnessed system reported UNSAT")
      // And anything the system implies must hold under the witness.
      val candidate = lt(x, assign(x) + rng.nextInt(5) + 1)
      if (entails(preds, candidate)) {
        val lhs = candidate.coefs.map { case (c, v) => v * assign(c) }.sum + candidate.const
        assert(lhs < 0, s"iter $iter: implied predicate violated by witness")
      }
    }
  }

  test("unsat on random systems with injected contradiction") {
    val rng = new Random(13)
    for (iter <- 0 until 100) {
      val c = (rng.nextInt(20) - 10).toDouble
      val base = Vector.fill(rng.nextInt(4))(le(y, rng.nextInt(30).toDouble))
      val sys = base ++ Vector(lt(x, c), gt(x, c))
      assert(!DiffLogic.satisfiable(sys), s"iter $iter")
    }
  }

  test("constant-only contradictions detected") {
    val alwaysFalse = Canon.normalize(Pred(Lit(1), Lt, Lit(0)))
    assert(!DiffLogic.satisfiable(Seq(alwaysFalse)))
    val alwaysTrue = Canon.normalize(Pred(Lit(0), Le, Lit(0)))
    assert(DiffLogic.satisfiable(Seq(alwaysTrue)))
    assert(entails(Seq(lt(x, 5)), alwaysTrue))
  }

  test("conjuncts outside difference form are rejected, not misread") {
    val sum = Canon.normalize(Pred(Add(Col(x), Col(y)), Lt, Lit(5)))
    val twice = Canon.normalize(Pred(Add(Col(x), Col(x)), Eq, Lit(6)))
    for (np <- Seq(sum, twice)) {
      assertThrows[IllegalArgumentException](Dbm(Seq(np)))
      assertThrows[IllegalArgumentException](Dbm(Seq(lt(x, 9), lt(y, 9))).close().entails(np))
    }
  }

  test("entails agrees with refutation on random systems") {
    // Refutation: preds ⟹ q iff preds ∧ ¬q is unsat; ¬(l = 0) is l < 0 ∨ −l < 0,
    // so an equality is checked as two strict refutations.
    def refuted(preds: Seq[NormPred], negated: NormPred) = !DiffLogic.satisfiable(preds :+ negated)
    def negation(q: NormPred, op: NOp) =
      Canon.toNorm(Lin(q.coefs.map { case (c, v) => c -> -v }.toMap, -q.const), op)
    def byRefutation(preds: Seq[NormPred], q: NormPred): Boolean = q.op match {
      case NLt => refuted(preds, negation(q, NLe))
      case NLe => refuted(preds, negation(q, NLt))
      case NEq => refuted(preds, q.copy(op = NLt)) && refuted(preds, negation(q, NLt))
    }
    val rng = new Random(11)
    val w = ColRef("a2", "w") // never in a system: an absent column
    val ops = Vector(Lt, Le, Eq, Ge, Gt)
    def conjunct(cols: Vector[ColRef]): NormPred = {
      val op = ops(rng.nextInt(ops.size))
      def k = Lit((rng.nextInt(7) - 3).toDouble)
      rng.nextInt(5) match {
        case 0 => Canon.normalize(Pred(k, op, k)) // constant conjunct
        case 1 | 2 => Canon.normalize(Pred(Col(cols(rng.nextInt(cols.size))), op, k))
        case _ =>
          val a = cols(rng.nextInt(cols.size))
          val b = cols.filterNot(_ == a)(rng.nextInt(cols.size - 1))
          Canon.normalize(Pred(Col(a), op, Add(Col(b), k)))
      }
    }
    val seen = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    for (iter <- 0 until 3000) {
      val preds = Vector.fill(rng.nextInt(5))(conjunct(Vector(x, y, z)))
      val q = conjunct(Vector(x, y, z, w))
      val got = entails(preds, q)
      assert(got == byRefutation(preds, q), s"iter $iter: $preds ⟹ $q")
      if (!DiffLogic.satisfiable(preds)) seen("unsat") += 1
      if (q.coefs.isEmpty) seen("constant") += 1
      if (q.op == NEq && got) seen("equality entailed") += 1
      if (q.cols(w)) seen("absent column") += 1
      if (q.op == NLt && got) seen("strict entailed") += 1
    }
    assert(seen.size == 5 && seen.values.forall(_ >= 20), s"thin coverage: $seen")
  }
}
