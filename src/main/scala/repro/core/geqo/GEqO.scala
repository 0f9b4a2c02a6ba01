package repro.core.geqo

import repro.core.emf.Emf
import repro.core.encode.{EncodedPlan, EncoderConfig, NodeVector}
import repro.core.ir.Ir.Plan
import repro.core.sf.SchemaFilter
import repro.core.vmf.Vmf
import repro.verifier.Verifier

/** The GEqO pipeline (Equations 1–2, §2.2): apply the short-circuiting
  * filter chain SF → VMF → EMF to a workload's pairwise space, then verify
  * every surviving pair with the automated verifier, yielding an
  * equivalence set with perfect precision.
  *
  * Each filter can be toggled for the ablation study (§7.6); with SF off,
  * the whole workload forms one group; with VMF off, all intra-group pairs
  * reach the EMF; with EMF off, VMF survivors go straight to the AV.
  *
  * The VMF stage runs its SF groups in parallel, and the EMF stage its
  * pairs; each keeps the serial order and scores, so every result equals a
  * one-thread run. The AV runs on the calling thread, as the exact path it
  * is compared with does.
  */
final class GEqO(val emf: Emf, val vmf: Vmf, val verifier: Verifier,
                 val inst: EncoderConfig, emfThreshold: Double = 0.5) {

  /** Per-stage pair counts and wall-clock (nanos). `afterSf`, `afterVmf`
    * and `afterEmf` count the pairs still alive *after* that stage.
    */
  final case class Stats(totalPairs: Long,
                         afterSf: Long, afterVmf: Long, afterEmf: Long, verified: Long,
                         sfNanos: Long, vmfNanos: Long, emfNanos: Long, avNanos: Long) {
    def totalNanos: Long = sfNanos + vmfNanos + emfNanos + avNanos
  }

  /** `vmfPairs`/`emfPairs` are the pairs alive after those stages (for
    * per-filter TPR/TNR accounting in the Table-1 benchmark). The SF stage
    * yields groups only; its survivors are the intra-group pairs.
    */
  final case class Result(equivalences: Set[(Int, Int)], stats: Stats,
                          vmfPairs: Vector[(Int, Int)], emfPairs: Vector[(Int, Int)])

  def equivalenceSet(workload: IndexedSeq[Plan],
                     useSf: Boolean = true, useVmf: Boolean = true,
                     useEmf: Boolean = true): Result = {
    val n = workload.size

    // Shared O(n) instance encodings (§4.2.1's fast path).
    val instEnc: IndexedSeq[EncodedPlan] =
      workload.map(NodeVector.encodeInstance(_, inst))

    val (groups, sfNanos) = timed {
      if (useSf) SchemaFilter.groups(workload) else Vector(workload.indices.toVector)
    }
    val (vmfPairs, vmfNanos) = timed {
      if (useVmf) vmf.candidates(groups, instEnc, inst)
      else groups.iterator.flatMap(SchemaFilter.pairs).toVector
    }
    val (emfPairs, emfNanos) = timed {
      if (!useEmf) vmfPairs
      else vmfPairs.zip(emf.predictProbs(instEnc, vmfPairs, inst))
        .collect { case (ij, p) if p >= emfThreshold => ij }
    }
    val (verified, avNanos) = timed {
      emfPairs.filter { case (i, j) => verifier.equivalent(workload(i), workload(j)) }.toSet
    }

    Result(verified,
      Stats(n.toLong * (n - 1) / 2, groups.map(g => g.size.toLong * (g.size - 1) / 2).sum,
            vmfPairs.size, emfPairs.size, verified.size, sfNanos, vmfNanos, emfNanos, avNanos),
      vmfPairs, emfPairs)
  }

  /** GEqO_PAIR (Equation 2): the cascade on the two-plan workload `(p, q)`,
    * so an SF, VMF or EMF reject short-circuits before the AV.
    */
  def equivalentPair(p: Plan, q: Plan): Boolean =
    equivalenceSet(Vector(p, q)).equivalences.nonEmpty

  private def timed[T](f: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val v = f
    (v, System.nanoTime() - t0)
  }
}
