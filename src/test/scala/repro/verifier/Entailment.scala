package repro.verifier

import repro.core.ir.Canon.NormPred

/** Implication checks for tests, read off each side's closed [[Dbm]]. */
object Entailment {
  def entails(preds: Seq[NormPred], q: NormPred): Boolean = Dbm(preds).close().entails(q)

  /** Mutual implication: each side's closed DBM entails every conjunct of the other. */
  def mutual(p1: Seq[NormPred], p2: Seq[NormPred]): Boolean =
    p2.forall(entails(p1, _)) && p1.forall(entails(p2, _))
}
