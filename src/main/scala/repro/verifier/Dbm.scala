package repro.verifier

import repro.core.ir.Ir.ColRef
import repro.core.ir.Canon.{NEq, NLe, NLt, NormPred}

/** Difference-bound-matrix decision procedure for conjunctions of
  * difference-logic constraints over the reals:
  * `x − y ⊲ c`, `x ⊲ c`, `x = y + c` with ⊲ ∈ {<, ≤}.
  *
  * This is the proof engine of the automated verifier (the paper uses
  * SPES + Z3; see DESIGN.md "Substitutions"). Bounds carry strictness, and
  * Floyd–Warshall closure detects negative (or zero-weight strict) cycles —
  * sound and complete for this constraint class over ℝ, which is exactly the
  * class the workload generator emits. A closed, satisfiable DBM holds the
  * tightest implied bound on every `u − v` (Dill 1989; Miné 2006), so
  * [[entails]] decides an implication by one bound lookup.
  */
final class Dbm private (val vars: IndexedSeq[ColRef]) {
  // Index 0 is the implicit ZERO variable; variable i is vars(i - 1).
  private val n: Int = vars.size + 1
  private val idx: Map[ColRef, Int] = vars.zipWithIndex.map { case (c, i) => c -> (i + 1) }.toMap

  /** w(u,v) = least c with `u − v ≤ c` (strict(u,v) ⇒ `<`). */
  private val w      = Array.fill(n * n)(Double.PositiveInfinity)
  private val strict = Array.fill(n * n)(false)
  private var contradiction = false
  private var closedUnsat = false

  @inline private def at(u: Int, v: Int): Int = u * n + v

  private def tighten(u: Int, v: Int, c: Double, s: Boolean): Unit = {
    val i = at(u, v)
    if (c < w(i) || (c == w(i) && s)) { w(i) = c; strict(i) = s }
  }

  /** The column pair `(u, v)` of `np`, read as `u − v ⊲ −np.const`; ZERO
    * stands in for the missing column of a one-column conjunct. Rejects a
    * conjunct outside [[NormPred.isDifferenceForm]] (a sum such as
    * `x + y < 5`, or a coefficient other than ±1), which no pair can hold.
    */
  private def pair(np: NormPred): (Int, Int) = np.coefs match {
    case (x, a) :: Nil if np.isDifferenceForm           => if (a > 0) (idx(x), 0) else (0, idx(x))
    case (x, a) :: (y, _) :: Nil if np.isDifferenceForm => if (a > 0) (idx(x), idx(y)) else (idx(y), idx(x))
    case _ => throw new IllegalArgumentException(s"not difference form: $np")
  }

  /** Truth of a constant conjunct `c ⊲ 0`. */
  private def holds(np: NormPred): Boolean = np.op match {
    case NLt => np.const < 0
    case NLe => np.const <= 0
    case NEq => np.const == 0
  }

  /** Assert `np` (must be in difference form). */
  def add(np: NormPred): Unit =
    if (np.coefs.isEmpty) { if (!holds(np)) contradiction = true }
    else {
      val (u, v) = pair(np)
      val c = -np.const
      if (np.op == NEq) { tighten(u, v, c, s = false); tighten(v, u, -c, s = false) }
      else tighten(u, v, c, np.op == NLt)
    }

  /** Floyd–Warshall closure, which also settles [[unsat]]; returns this. */
  def close(): Dbm = {
    var k = 0
    while (k < n) {
      var u = 0
      while (u < n) {
        val wk = w(at(u, k))
        if (!wk.isInfinity) {
          val sk = strict(at(u, k))
          var v = 0
          while (v < n) {
            val kv = w(at(k, v))
            if (!kv.isInfinity) tighten(u, v, wk + kv, sk || strict(at(k, v)))
            v += 1
          }
        }
        u += 1
      }
      k += 1
    }
    closedUnsat = contradiction || (0 until n).exists { u =>
      val i = at(u, u)
      w(i) < 0 || (w(i) == 0 && strict(i))
    }
    this
  }

  /** UNSAT iff a negative cycle (or zero-weight strict cycle) exists. Call
    * after [[close]].
    */
  def unsat: Boolean = closedUnsat

  /** Does the system imply `np` (difference form)? Always when it is unsat.
    * Otherwise a constant conjunct is evaluated directly, and `u − v ⊲ c`
    * holds when the closed bound on `u − v` is at least as tight: below
    * `c`, or equal to it with `⊲` non-strict or the bound strict. A column
    * absent from this DBM is unbounded. An equality needs both directions.
    * Call after [[close]].
    */
  def entails(np: NormPred): Boolean =
    unsat || (
      if (np.coefs.isEmpty) holds(np)
      else if (!np.coefs.forall(cv => idx.contains(cv._1))) false
      else {
        val (u, v) = pair(np)
        val c = -np.const
        if (np.op == NEq) within(u, v, c, s = false) && within(v, u, -c, s = false)
        else within(u, v, c, np.op == NLt)
      })

  /** Is the closed bound on `u − v` at least as tight as `u − v ⊲ c`? */
  private def within(u: Int, v: Int, c: Double, s: Boolean): Boolean = {
    val i = at(u, v)
    w(i) < c || (w(i) == c && (strict(i) || !s))
  }

  /** Closed bound `u − v ≤/< c` between two columns (or a column and the
    * ZERO var when one side is None). Infinity when unconstrained.
    */
  def bound(u: Option[ColRef], v: Option[ColRef]): (Double, Boolean) = {
    val ui = u.fold(0)(idx); val vi = v.fold(0)(idx)
    (w(at(ui, vi)), strict(at(ui, vi)))
  }
}

object Dbm {
  def apply(preds: Seq[NormPred]): Dbm = {
    val vars = preds.flatMap(_.cols).distinct.sortBy(c => (c.table, c.column)).toIndexedSeq
    val d = new Dbm(vars)
    preds.foreach(d.add)
    d
  }
}

/** Conjunction-level queries over the DBM engine. */
object DiffLogic {

  def satisfiable(preds: Seq[NormPred]): Boolean = !Dbm(preds).close().unsat

  /** Is conjunct `i` implied by the remaining conjuncts? */
  def redundant(preds: Seq[NormPred], i: Int): Boolean =
    Dbm(preds.patch(i, Nil, 1)).close().entails(preds(i))
}
