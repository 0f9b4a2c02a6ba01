package repro.ml

import scala.util.Random

/** L2-regularized logistic regression trained with Adam — the LR candidate
  * EMF classifier compared in Table 3 (§7.1.1).
  */
final class LogisticRegression(val dim: Int, seed: Long = 0) {
  private val rng = new Random(seed)
  private val w = new Param(1, dim).initUniform(rng, 0.01)
  private val b = new Param(1, 1)
  private val opt = new Adam(Seq(w, b), lr = 1e-2, wd = 1e-4)
  private val batchSize = 64

  def logit(x: Array[Double]): Double = {
    var s = b.v(0)
    var i = 0
    while (i < dim) { s += w.v(i) * x(i); i += 1 }
    s
  }

  def predictProb(x: Array[Double]): Double = NnOps.sigmoid(logit(x))
  def predict(x: Array[Double]): Boolean    = predictProb(x) >= 0.5

  def fit(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Boolean], epochs: Int): Unit = {
    val idx = xs.indices.toArray
    for (_ <- 0 until epochs) {
      shuffle(idx)
      idx.grouped(batchSize).foreach { batch =>
        opt.zeroGrad()
        batch.foreach { i =>
          val (_, dLogit) = NnOps.bceWithLogit(logit(xs(i)), if (ys(i)) 1.0 else 0.0)
          var j = 0
          while (j < dim) { w.g(j) += dLogit * xs(i)(j); j += 1 }
          b.g(0) += dLogit
        }
        opt.step(batch.length)
      }
    }
  }

  private def shuffle(a: Array[Int]): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }
}
