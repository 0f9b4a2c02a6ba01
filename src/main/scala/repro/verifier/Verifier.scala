package repro.verifier

import repro.core.ir.Canon
import repro.core.ir.Canon.Flat
import repro.core.ir.Ir._
import java.util.concurrent.atomic.LongAdder

/** Automated verifier (AV): decides semantic equivalence `q₁ ≡ q₂` of SPJ
  * subexpressions with conjunctive difference predicates under bag
  * semantics. Stands in for SPES + Z3 (DESIGN.md "Substitutions").
  *
  * Decision procedure: bag-semantics equivalence of this class holds iff
  * there is a table-preserving bijection between base-table atoms under
  * which (i) the projection lists coincide position-wise and (ii) the
  * conjunct sets mutually imply each other (decided by [[DiffLogic]]), or
  * both predicates are unsatisfiable (both queries always empty) with equal
  * output arity. The bijection search backtracks over per-table
  * permutations.
  *
  * `smtIters` is the documented cost shim: the *real* decision procedure is
  * re-run that many times per call so the per-pair cost matches the
  * SMT-solver regime of the paper's AV (898 s / ~50k pairs ≈ 18 ms). It
  * never changes the verdict; accuracy experiments use `smtIters = 1`.
  */
final class Verifier(val smtIters: Int = 1) {

  private val callCount = new LongAdder

  /** Number of `equivalent` calls since construction (for bench accounting). */
  def calls: Long = callCount.sum()

  def equivalent(p: Plan, q: Plan): Boolean = {
    callCount.increment()
    var verdict = false
    var i = 0
    while (i < smtIters) { verdict = decide(p, q); i += 1 }
    verdict
  }

  private def decide(p: Plan, q: Plan): Boolean = {
    val f1 = Canon.flatten(p)
    val f2 = Canon.flatten(q)
    if (f1.proj.size != f2.proj.size) return false
    if (f1.tableMultiset != f2.tableMultiset) return false

    val sat1 = DiffLogic.satisfiable(f1.conjuncts)
    val sat2 = DiffLogic.satisfiable(f2.conjuncts)
    if (!sat1 && !sat2) return true // both always-empty, arity already equal
    if (sat1 != sat2) return false

    existsBijection(f1, f2)
  }

  /** Backtracking search over table-preserving alias bijections σ: q₂ → q₁. */
  private def existsBijection(f1: Flat, f2: Flat): Boolean = {
    val byTable1 = f1.atoms.groupBy(_.table).map { case (t, as) => t -> as.map(_.alias) }
    val atoms2   = f2.atoms

    def rec(i: Int, used: Set[String], sub: Map[String, String]): Boolean = {
      if (i == atoms2.size) checkUnder(f1, f2, sub)
      else {
        val a2 = atoms2(i)
        byTable1.getOrElse(a2.table, Seq.empty).exists { a1 =>
          !used(a1) && rec(i + 1, used + a1, sub + (a2.alias -> a1))
        }
      }
    }
    rec(0, Set.empty, Map.empty)
  }

  private def checkUnder(f1: Flat, f2: Flat, sub: Map[String, String]): Boolean = {
    val proj2 = f2.proj.map(r => ColRef(sub.getOrElse(r.table, r.table), r.column))
    if (proj2 != f1.proj) return false
    val conj2 = f2.conjuncts.map(Canon.rename(_, sub))
    DiffLogic.equivalent(f1.conjuncts, conj2)
  }
}
