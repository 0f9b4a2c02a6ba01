package repro.core.ssfl

import repro.core.emf.Emf
import repro.core.encode.{EncodedPlan, EncoderConfig, NodeVector}
import repro.core.ir.Ir.Plan
import repro.core.sf.SchemaFilter
import repro.core.vmf.Vmf
import repro.verifier.Verifier
import scala.util.Random

/** Semi-supervised feedback loop (SSFL, §6, Algorithm 1): monitor EMF
  * confidence over a workload; when it drops below T_h, draw a
  * *filter-balanced* sample — positives from AV(VMF(SF(W×W))), negatives
  * topped up at random — and fine-tune the EMF incrementally.
  */
final class Ssfl(val emf: Emf, val vmf: Vmf, val verifier: Verifier,
                 val inst: EncoderConfig, val th: Double = 0.9, seed: Long = 11) {
  private val rng = new Random(seed)

  private def instEnc(w: IndexedSeq[Plan]): IndexedSeq[EncodedPlan] =
    w.map(NodeVector.encodeInstance(_, inst))

  /** SSFL-CL (Definition 6.1): fraction of pairs on which the EMF is
    * confident, i.e. max(P₀, P₁) ≥ T_h.
    */
  def confidence(workload: IndexedSeq[Plan]): Double = {
    val n = workload.size
    if (n < 2) return 1.0
    val probs = emf.predictProbs(instEnc(workload), SchemaFilter.pairs(workload.indices), inst)
    val confident = probs.count(p => math.max(p, 1 - p) >= th)
    confident.toDouble / (n.toLong * (n - 1) / 2)
  }

  /** Filter-balanced sample (§6): SF∩VMF candidates labeled by the AV keep
    * both their positives and negatives; negatives are topped up with random
    * SF-compatible pairs until classes balance. `cap` bounds sample size
    * (one SSFL batch, 512 in the paper's Figure 9).
    */
  def filterBalancedSample(workload: IndexedSeq[Plan], cap: Int = 512)
      : Vector[(Plan, Plan, Boolean)] = {
    val candidates = vmf.candidates(SchemaFilter.groups(workload), instEnc(workload), inst)
    val labeled = rng.shuffle(candidates).take(cap).map { case (i, j) =>
      (workload(i), workload(j), verifier.equivalent(workload(i), workload(j)))
    }
    val pos = labeled.filter(_._3)
    val neg = labeled.filterNot(_._3)
    val needed = math.max(0, pos.size - neg.size)
    val extraNeg = randomPairs(workload, needed * 3)
      .map { case (i, j) => (workload(i), workload(j), verifier.equivalent(workload(i), workload(j))) }
      .filterNot(_._3)
      .take(needed)
    rng.shuffle(pos ++ neg ++ extraNeg).take(cap)
  }

  /** Naive random sample (the Figure 9 baseline): uniform pairs, AV-labeled. */
  def randomSample(workload: IndexedSeq[Plan], cap: Int = 512)
      : Vector[(Plan, Plan, Boolean)] =
    randomPairs(workload, cap).map { case (i, j) =>
      (workload(i), workload(j), verifier.equivalent(workload(i), workload(j)))
    }

  private def randomPairs(workload: IndexedSeq[Plan], n: Int): Vector[(Int, Int)] = {
    if (workload.size < 2) return Vector.empty
    Vector.fill(n) {
      val i = rng.nextInt(workload.size)
      var j = rng.nextInt(workload.size)
      while (j == i) j = rng.nextInt(workload.size)
      (math.min(i, j), math.max(i, j))
    }.distinct
  }

  /** One Algorithm-1 iteration: fine-tune if confidence is low. Returns the
    * (pre-tuning) confidence and whether a fine-tuning round ran.
    */
  def step(workload: IndexedSeq[Plan], batch: Int = 512, epochs: Int = 5): (Double, Boolean) = {
    val cl = confidence(workload)
    if (cl >= th) (cl, false)
    else {
      val sample = filterBalancedSample(workload, batch)
      if (sample.nonEmpty) emf.fit(sample, inst, epochs)
      (cl, sample.nonEmpty)
    }
  }

  /** Iterate until confident or `maxRounds`; returns per-round confidences. */
  def run(workload: IndexedSeq[Plan], maxRounds: Int = 8, batch: Int = 512,
          epochs: Int = 5): Vector[Double] = {
    val out = Vector.newBuilder[Double]
    var round = 0
    var done = false
    while (round < maxRounds && !done) {
      val (cl, tuned) = step(workload, batch, epochs)
      out += cl
      done = !tuned
      round += 1
    }
    out.result()
  }
}
