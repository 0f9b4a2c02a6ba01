package repro.ml

import scala.util.Random

/** Random forest of CART trees (Gini impurity, bootstrap sampling, √d
  * feature subsampling) — the RF candidate EMF classifier of Table 3
  * (§7.1.1). Pure-Scala sklearn substitute.
  */
final class RandomForest(nTrees: Int = 50, maxDepth: Int = 12, seed: Long = 0) {
  private val minLeaf = 2

  private sealed trait Node
  private final case class Leaf(prob: Double) extends Node
  private final case class Split(feature: Int, threshold: Double, lo: Node, hi: Node) extends Node

  private var trees: Vector[Node] = Vector.empty

  def fit(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Boolean]): Unit = {
    require(xs.nonEmpty, "empty training set")
    val rng = new Random(seed)
    val dim = xs.head.length
    val nFeat = math.max(1, math.sqrt(dim.toDouble).round.toInt)
    trees = Vector.fill(nTrees) {
      val sample = Array.fill(xs.size)(rng.nextInt(xs.size))
      build(xs, ys, sample, 0, nFeat, new Random(rng.nextLong()))
    }
  }

  private def build(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Boolean],
                    rows: Array[Int], depth: Int, nFeat: Int, rng: Random): Node = {
    val pos = rows.count(ys(_))
    val prob = pos.toDouble / rows.length
    if (depth >= maxDepth || rows.length < 2 * minLeaf || pos == 0 || pos == rows.length)
      return Leaf(prob)

    val dim = xs.head.length
    var bestGini = Double.MaxValue
    var bestFeat = -1
    var bestThr = 0.0
    val feats = Array.fill(nFeat)(rng.nextInt(dim))
    feats.foreach { f =>
      // Candidate thresholds from a row subsample keeps fitting O(n·√d·k).
      val cand = Array.fill(math.min(16, rows.length))(xs(rows(rng.nextInt(rows.length)))(f))
      cand.foreach { thr =>
        var loN = 0; var loP = 0; var hiN = 0; var hiP = 0
        rows.foreach { r =>
          if (xs(r)(f) <= thr) { loN += 1; if (ys(r)) loP += 1 }
          else { hiN += 1; if (ys(r)) hiP += 1 }
        }
        if (loN >= minLeaf && hiN >= minLeaf) {
          val g = gini(loP, loN) * loN / rows.length + gini(hiP, hiN) * hiN / rows.length
          if (g < bestGini) { bestGini = g; bestFeat = f; bestThr = thr }
        }
      }
    }
    if (bestFeat < 0) return Leaf(prob)
    val (lo, hi) = rows.partition(r => xs(r)(bestFeat) <= bestThr)
    Split(bestFeat, bestThr,
      build(xs, ys, lo, depth + 1, nFeat, rng),
      build(xs, ys, hi, depth + 1, nFeat, rng))
  }

  private def gini(pos: Int, n: Int): Double = {
    if (n == 0) 0.0
    else { val p = pos.toDouble / n; 2 * p * (1 - p) }
  }

  def predictProb(x: Array[Double]): Double = {
    require(trees.nonEmpty, "fit before predict")
    trees.map(walk(_, x)).sum / trees.size
  }
  def predict(x: Array[Double]): Boolean = predictProb(x) >= 0.5

  @annotation.tailrec
  private def walk(n: Node, x: Array[Double]): Double = n match {
    case Leaf(p) => p
    case Split(f, thr, lo, hi) => walk(if (x(f) <= thr) lo else hi, x)
  }
}
