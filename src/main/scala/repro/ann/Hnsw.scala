package repro.ann

import scala.collection.mutable
import scala.util.Random

/** Hierarchical Navigable Small World index (Malkov & Yashunin [35]), the
  * FAISS substitute for the paper's ANN search (§2.4); supports kNN and
  * Euclidean radius search, with O(log n) expected insertion. The VMF does
  * not use it: it scans its small SF groups exactly. `Hnsw.dist` is the one
  * embedding distance of the VMF and its calibration.
  */
final class Hnsw(val dim: Int, m: Int = 12, efConstruction: Int = 64, seed: Long = 0) {
  private val mL = 1.0 / math.log(m.toDouble)
  private val rng = new Random(seed)

  private val vectors = mutable.ArrayBuffer.empty[Array[Double]]
  /** neighbors(node)(level) = adjacency list. */
  private val neighbors = mutable.ArrayBuffer.empty[Array[mutable.ArrayBuffer[Int]]]
  private var entry: Int = -1
  private var maxLevel: Int = -1

  def size: Int = vectors.size
  def vector(id: Int): Array[Double] = vectors(id)

  def dist(a: Array[Double], b: Array[Double]): Double = Hnsw.dist(a, b)

  /** Insert `v`; returns its id (insertion order). */
  def add(v: Array[Double]): Int = {
    require(v.length == dim, s"dim mismatch: ${v.length} vs $dim")
    val id = vectors.size
    vectors += v
    val level = math.min(16, (-math.log(rng.nextDouble().max(1e-12)) * mL).toInt)
    neighbors += Array.fill(level + 1)(mutable.ArrayBuffer.empty[Int])

    if (entry < 0) { entry = id; maxLevel = level; return id }

    var ep = entry
    var lc = maxLevel
    while (lc > level) { ep = greedyClosest(v, ep, lc); lc -= 1 }

    lc = math.min(level, maxLevel)
    while (lc >= 0) {
      val cands = searchLayer(v, ep, efConstruction, lc)
      val sel = cands.sortBy(_._2).take(m)
      sel.foreach { case (nId, _) =>
        neighbors(id)(lc) += nId
        neighbors(nId)(lc) += id
        val cap = if (lc == 0) 2 * m else m
        if (neighbors(nId)(lc).size > cap) {
          val pruned = neighbors(nId)(lc)
            .map(x => (x, dist(vectors(nId), vectors(x))))
            .sortBy(_._2).take(cap).map(_._1)
          neighbors(nId)(lc).clear()
          neighbors(nId)(lc) ++= pruned
        }
      }
      if (cands.nonEmpty) ep = cands.minBy(_._2)._1
      lc -= 1
    }
    if (level > maxLevel) { maxLevel = level; entry = id }
    id
  }

  private def greedyClosest(q: Array[Double], start: Int, level: Int): Int = {
    var cur = start
    var curD = dist(q, vectors(cur))
    var improved = true
    while (improved) {
      improved = false
      neighbors(cur)(level).foreach { n =>
        val d = dist(q, vectors(n))
        if (d < curD) { cur = n; curD = d; improved = true }
      }
    }
    cur
  }

  /** Best-first beam search on one layer; returns up to `ef` (id, dist). */
  private def searchLayer(q: Array[Double], ep: Int, ef: Int, level: Int): Vector[(Int, Double)] = {
    val visited = mutable.HashSet(ep)
    val epD = dist(q, vectors(ep))
    // candidates: closest-first; results: farthest-first (bounded by ef)
    val cand = mutable.PriorityQueue((epD, ep))(Ordering.by[(Double, Int), Double](-_._1))
    val res  = mutable.PriorityQueue((epD, ep))(Ordering.by[(Double, Int), Double](_._1))

    while (cand.nonEmpty) {
      val (cD, c) = cand.dequeue()
      if (cD > res.head._1 && res.size >= ef) { cand.clear() }
      else {
        neighbors(c)(level).foreach { n =>
          if (!visited.contains(n)) {
            visited += n
            val d = dist(q, vectors(n))
            if (res.size < ef || d < res.head._1) {
              cand.enqueue((d, n))
              res.enqueue((d, n))
              if (res.size > ef) res.dequeue()
            }
          }
        }
      }
    }
    res.toVector.map { case (d, i) => (i, d) }
  }

  /** k nearest neighbors of `q` (beam width `ef`). */
  def search(q: Array[Double], k: Int, ef: Int = 64): Vector[(Int, Double)] = {
    if (entry < 0) return Vector.empty
    var ep = entry
    var lc = maxLevel
    while (lc > 0) { ep = greedyClosest(q, ep, lc); lc -= 1 }
    searchLayer(q, ep, math.max(ef, k), 0).sortBy(_._2).take(k)
  }

  /** Neighbors of `q` within Euclidean distance `tau` (Def 2.1's radius
    * search), bounded by beam width `ef`.
    */
  def radius(q: Array[Double], tau: Double, ef: Int = 64): Vector[(Int, Double)] =
    search(q, ef, ef).filter(_._2 <= tau)
}

object Hnsw {
  /** Euclidean distance; the squares are summed left to right from 0.0. */
  def dist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }
}
