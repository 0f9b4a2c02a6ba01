package repro.core.vmf

import repro.Par
import repro.ann.Hnsw
import repro.core.emf.Emf
import repro.core.encode.{DbAgnostic, EncodedPlan, EncoderConfig, NodeVector}
import repro.core.ir.Ir.Plan
import repro.core.sf.SchemaFilter

/** The vector matching filter (VMF, §2.2, Definition 2.1): embed each
  * subexpression of an SF-group with the EMF's learned tree convolutions
  * over the group's n-ary db-agnostic encoding (§4.2.2), then admit every
  * pair within Euclidean distance τ by an exact scan of the group's pairs.
  */
final class Vmf(val emf: Emf, val tau: Double) {

  /** Embed a whole SF-group with the n-ary group encoding. */
  def embedGroup(instanceEncoded: Seq[EncodedPlan], inst: EncoderConfig): Vector[Array[Double]] =
    DbAgnostic.convert(instanceEncoded, inst, emf.agn).map(emf.model.embed).toVector

  /** Candidate (i, j) pairs (indices into `group`, i < j) whose embeddings
    * fall within τ, in `(i, j)` order. The scan is exact: the paper's ANN
    * search (§2.4) only keeps this predicate sub-quadratic on one large
    * set, while SF groups hold tens to a few hundred plans, where scanning
    * every pair is cheaper than building an index and loses none.
    */
  def candidatePairs(instanceEncoded: IndexedSeq[EncodedPlan], inst: EncoderConfig): Vector[(Int, Int)] = {
    val embs = embedGroup(instanceEncoded, inst)
    SchemaFilter.pairs(embs.indices)
      .filter { case (i, j) => Hnsw.dist(embs(i), embs(j)) <= tau }.toVector
  }

  /** The VMF stage over a workload: each group (ascending indices into
    * `instEnc`, e.g. from `SchemaFilter.groups`) goes through
    * [[candidatePairs]], and its pairs come back as workload indices
    * (i < j), group by group. The groups run in parallel and their pairs are
    * concatenated in group order, as a serial loop would.
    */
  def candidates(groups: Seq[IndexedSeq[Int]], instEnc: IndexedSeq[EncodedPlan],
                 inst: EncoderConfig): Vector[(Int, Int)] = {
    val gs = groups.toIndexedSeq
    Par.tabulate(gs.size) { k =>
      val g = gs(k)
      candidatePairs(g.map(instEnc), inst).map { case (a, b) => (g(a), g(b)) }
    }.iterator.flatten.toVector
  }

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

  /** The quantile of positive-pair distances that [[calibrate]] picks. */
  private val Quantile = 0.95

  /** Choose τ from labeled pairs: the 95th percentile of *positive*-pair
    * embedding distances, so the VMF admits equivalences with the
    * near-perfect recall Table 1 requires.
    */
  def calibrate(emf: Emf, pairs: Seq[(Plan, Plan, Boolean)], inst: EncoderConfig): Double = {
    val dists = pairs.collect { case (p, q, true) => pairDistance(emf, p, q, inst) }.sorted
    require(dists.nonEmpty, "calibrate needs positive pairs")
    val idx = math.min(dists.size - 1, (Quantile * dists.size).toInt)
    math.max(dists(idx), 1e-6)
  }
}
