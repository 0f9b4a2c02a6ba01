package repro.core.vmf

import repro.ann.Hnsw
import repro.core.emf.Emf
import repro.core.encode.{DbAgnostic, EncodedPlan, EncoderConfig, NodeVector}
import repro.core.ir.Ir.Plan
import repro.core.sf.SchemaFilter

/** The vector matching filter (VMF, §2.2, Definition 2.1): embed each
  * subexpression of an SF-group with the EMF's learned tree convolutions
  * over the group's n-ary db-agnostic encoding (§4.2.2), then admit pairs
  * within Euclidean distance τ via HNSW radius search.
  */
final class Vmf(val emf: Emf, val tau: Double, hnswEf: Int = 48) {

  /** Embed a whole SF-group with the n-ary group encoding. */
  def embedGroup(instanceEncoded: Seq[EncodedPlan], inst: EncoderConfig): Vector[Array[Double]] =
    DbAgnostic.convert(instanceEncoded, inst, emf.agn).map(emf.model.embed).toVector

  /** Candidate (i, j) pairs (indices into `group`, i < j) whose embeddings
    * fall within τ. Small groups use exact distances; larger ones go through
    * the HNSW index (O(n log n) total, §2.4).
    */
  def candidatePairs(instanceEncoded: IndexedSeq[EncodedPlan], inst: EncoderConfig,
                     bruteForceBelow: Int = 64): Vector[(Int, Int)] = {
    val embs = embedGroup(instanceEncoded, inst)
    val n = embs.size
    if (n < 2) Vector.empty
    else if (n <= bruteForceBelow)
      SchemaFilter.pairs(0 until n)
        .filter { case (i, j) => Hnsw.dist(embs(i), embs(j)) <= tau }.toVector
    else {
      val index = new Hnsw(embs.head.length, seed = 7)
      embs.foreach(index.add)
      (for {
        i <- 0 until n
        (j, _) <- index.radius(embs(i), tau, hnswEf)
        if j > i
      } yield (i, j)).toVector.distinct
    }
  }

  /** The VMF stage over a workload: each group (ascending indices into
    * `instEnc`, e.g. from `SchemaFilter.groups`) goes through
    * [[candidatePairs]], and its pairs come back as workload indices
    * (i < j), group by group.
    */
  def candidates(groups: Seq[IndexedSeq[Int]], instEnc: IndexedSeq[EncodedPlan],
                 inst: EncoderConfig): Vector[(Int, Int)] =
    groups.iterator.flatMap { g =>
      candidatePairs(g.map(instEnc), inst).map { case (a, b) => (g(a), g(b)) }
    }.toVector

  /** Pairwise admission (the 2-ary special case). */
  def admits(p: Plan, q: Plan, inst: EncoderConfig): Boolean =
    Vmf.pairDistance(emf, p, q, inst) <= tau
}

object Vmf {
  /** Embedding distance of `p` and `q`, embedded together as a 2-plan group. */
  private def pairDistance(emf: Emf, p: Plan, q: Plan, inst: EncoderConfig): Double = {
    val enc = Vector(NodeVector.encodeInstance(p, inst), NodeVector.encodeInstance(q, inst))
    val embs = DbAgnostic.convert(enc, inst, emf.agn).map(emf.model.embed)
    Hnsw.dist(embs(0), embs(1))
  }

  /** Choose τ from labeled pairs: the given quantile of *positive*-pair
    * embedding distances (≥ max for quantile 1.0), so the VMF admits
    * equivalences with the near-perfect recall Table 1 requires.
    */
  def calibrate(emf: Emf, pairs: Seq[(Plan, Plan, Boolean)], inst: EncoderConfig,
                quantile: Double = 0.95, slack: Double = 1.0): Double = {
    val dists = pairs.collect { case (p, q, true) => pairDistance(emf, p, q, inst) }.sorted
    require(dists.nonEmpty, "calibrate needs positive pairs")
    val idx = math.min(dists.size - 1, (quantile * dists.size).toInt)
    math.max(dists(idx) * slack, 1e-6)
  }
}
