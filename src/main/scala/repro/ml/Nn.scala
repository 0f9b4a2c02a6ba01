package repro.ml

import scala.util.Random

/** Minimal neural-network substrate (the PyTorch substitute): parameters
  * with explicit gradients, Adam with decoupled weight decay, and the layer
  * set the EMF architecture needs — Dense, PReLU, Dropout, TreeConv, and
  * dynamic max pooling (§5). All layers are per-sample with gradient
  * accumulation across a minibatch; arrays are raw `Array[Double]` with
  * hand-written while-loops for JIT-friendly inner products.
  *
  * Each layer's backward pass comes in two halves. `inputGrad` returns the
  * gradient of the layer's input and reads the parameters only, so the
  * examples of a minibatch may run it in parallel. `addGrads` adds one
  * example's terms to the parameters' gradients; calling it example by
  * example in a fixed order fixes every gradient sum's order.
  */
final class Param(val rows: Int, val cols: Int) {
  val size: Int = rows * cols
  val v: Array[Double]  = new Array(size) // value
  val g: Array[Double]  = new Array(size) // accumulated gradient
  val m1: Array[Double] = new Array(size) // Adam first moment
  val m2: Array[Double] = new Array(size) // Adam second moment

  def initUniform(rng: Random, scale: Double): this.type = {
    var i = 0
    while (i < size) { v(i) = (rng.nextDouble() * 2 - 1) * scale; i += 1 }
    this
  }
  def fill(x: Double): this.type = { java.util.Arrays.fill(v, x); this }
  def zeroGrad(): Unit = java.util.Arrays.fill(g, 0.0)
}

/** Adam (Kingma & Ba) with decoupled weight decay — the paper's optimizer
  * settings are lr 1e-3, weight decay 5e-4 (§7 "Implementation").
  */
final class Adam(params: Seq[Param], lr: Double = 1e-3, wd: Double = 5e-4,
                 b1: Double = 0.9, b2: Double = 0.999, eps: Double = 1e-8) {
  private var t = 0

  def zeroGrad(): Unit = params.foreach(_.zeroGrad())

  /** One update step; `batch` scales accumulated gradients to a mean. */
  def step(batch: Int): Unit = {
    t += 1
    val c1 = 1 - math.pow(b1, t)
    val c2 = 1 - math.pow(b2, t)
    params.foreach { p =>
      var i = 0
      while (i < p.size) {
        val g = p.g(i) / batch + wd * p.v(i)
        p.m1(i) = b1 * p.m1(i) + (1 - b1) * g
        p.m2(i) = b2 * p.m2(i) + (1 - b2) * g * g
        p.v(i) -= lr * (p.m1(i) / c1) / (math.sqrt(p.m2(i) / c2) + eps)
        i += 1
      }
    }
  }
}

/** Fully connected layer y = W·x + b. */
final class Dense(val in: Int, val out: Int, rng: Random) {
  val w: Param = new Param(out, in).initUniform(rng, math.sqrt(6.0 / (in + out)))
  val b: Param = new Param(out, 1)
  def params: Seq[Param] = Seq(w, b)

  def forward(x: Array[Double]): Array[Double] = {
    val y = b.v.clone()
    NnOps.addRows(w.v, in, x, NnOps.nonZeros(x), y)
    y
  }

  /** dx for the output gradient `gy`. */
  def inputGrad(gy: Array[Double]): Array[Double] = {
    val gx = new Array[Double](in)
    NnOps.addInputGrad(w, gy, gx)
    gx
  }

  /** Adds dW, db for the input `x` and the output gradient `gy`. */
  def addGrads(x: Array[Double], gy: Array[Double]): Unit = {
    NnOps.addWeightGrad(w, x, NnOps.nonZeros(x), gy)
    var o = 0
    while (o < out) { b.g(o) += gy(o); o += 1 }
  }
}

/** Parametric ReLU with a learnable per-layer slope (§5: PReLU activation). */
final class PRelu(rng: Random) {
  val alpha: Param = new Param(1, 1).fill(0.25)
  def params: Seq[Param] = Seq(alpha)

  def forward(x: Array[Double]): Array[Double] = {
    val a = alpha.v(0)
    val y = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { y(i) = if (x(i) >= 0) x(i) else a * x(i); i += 1 }
    y
  }

  /** dx for the input `x` and the output gradient `gy`. */
  def inputGrad(x: Array[Double], gy: Array[Double]): Array[Double] = {
    val a = alpha.v(0)
    val gx = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { gx(i) = if (x(i) >= 0) gy(i) else a * gy(i); i += 1 }
    gx
  }

  /** Adds dα for the input `x` and the output gradient `gy`. */
  def addGrads(x: Array[Double], gy: Array[Double]): Unit = {
    var i = 0
    while (i < x.length) { if (x(i) < 0) alpha.g(0) += x(i) * gy(i); i += 1 }
  }
}

/** Inverted dropout. A mask is drawn once per training example and applied
  * to the activations forward and to their gradient backward; inference
  * passes no mask.
  */
final class Dropout(p: Double) {
  /** A fresh mask of width `n` (`1/(1−p)` where kept, 0 where dropped), one
    * `rng` draw per entry in order; `null`, drawing nothing, when `p` is 0.
    */
  def drawMask(n: Int, rng: Random): Array[Double] =
    if (p <= 0) null
    else {
      val keep = 1 - p
      val mask = new Array[Double](n)
      var i = 0
      while (i < n) { mask(i) = if (rng.nextDouble() < keep) 1.0 / keep else 0.0; i += 1 }
      mask
    }

  /** `x ⊙ mask`, or `x` itself when `mask` is null. */
  def apply(x: Array[Double], mask: Array[Double]): Array[Double] =
    if (mask == null) x
    else {
      val y = new Array[Double](x.length)
      var i = 0
      while (i < x.length) { y(i) = x(i) * mask(i); i += 1 }
      y
    }
}

/** Tree convolution (Mou et al. [39], as used by Neo [37] and the EMF §5):
  * each node's output is a learned map of [node, left-child, right-child]
  * with absent children as zero vectors. Weight sharing across nodes.
  */
final class TreeConv(val in: Int, val out: Int, rng: Random) {
  private val scale = math.sqrt(6.0 / (3 * in + out))
  val ws: Param = new Param(out, in).initUniform(rng, scale)
  val wl: Param = new Param(out, in).initUniform(rng, scale)
  val wr: Param = new Param(out, in).initUniform(rng, scale)
  val b: Param  = new Param(out, 1)
  def params: Seq[Param] = Seq(ws, wl, wr, b)

  /** `left(i)` / `right(i)` are child node indices or -1.
    *
    * Zero input entries are skipped: each node's non-zero indices are
    * gathered once, and the mat-vecs over a sparse node vector run over
    * those only (see [[NnOps.addRows]]). A one-hot node vector (3–6
    * non-zeros of ~78) costs a few columns of the dense product, and the
    * output is the same.
    */
  def forward(nodes: Array[Array[Double]], left: Array[Int], right: Array[Int]): Array[Array[Double]] = {
    val n = nodes.length
    val nz = nodes.map(NnOps.nonZeros)
    val child = new Array[Double](out)
    // y += W·nodes(c), summed on its own first: each y(o) is built from
    // whole per-matrix sums, ws·x, then wl·x_left, wr·x_right and the bias.
    def addChild(wp: Param, c: Int, y: Array[Double]): Unit = if (c >= 0) {
      java.util.Arrays.fill(child, 0.0)
      NnOps.addRows(wp.v, in, nodes(c), nz(c), child)
      var o = 0
      while (o < out) { y(o) += child(o); o += 1 }
    }
    val ys = new Array[Array[Double]](n)
    var i = 0
    while (i < n) {
      val y = new Array[Double](out)
      NnOps.addRows(ws.v, in, nodes(i), nz(i), y)
      addChild(wl, left(i), y)
      addChild(wr, right(i), y)
      var o = 0
      while (o < out) { y(o) += b.v(o); o += 1 }
      ys(i) = y; i += 1
    }
    ys
  }

  /** Each node's input gradient for the output gradients `gys`. */
  def inputGrads(left: Array[Int], right: Array[Int],
                 gys: Array[Array[Double]]): Array[Array[Double]] = {
    val gxs = Array.fill(gys.length)(new Array[Double](in))
    def add(wp: Param, c: Int, gy: Array[Double]): Unit =
      if (c >= 0) NnOps.addInputGrad(wp, gy, gxs(c))
    var i = 0
    while (i < gys.length) {
      add(ws, i, gys(i))
      add(wl, left(i), gys(i))
      add(wr, right(i), gys(i))
      i += 1
    }
    gxs
  }

  /** Adds dWs, dWl, dWr, db for the input `nodes` and the output gradients
    * `gys`. [[NnOps.addWeightGrad]] skips the zero rows of `gys` (most of
    * them in a layer under max pooling) and the zeros of a one-hot node
    * vector (the first layer's input).
    */
  def addGrads(nodes: Array[Array[Double]], left: Array[Int], right: Array[Int],
               gys: Array[Array[Double]]): Unit = {
    val nz = nodes.map(NnOps.nonZeros)
    def add(wp: Param, c: Int, gy: Array[Double]): Unit =
      if (c >= 0) NnOps.addWeightGrad(wp, nodes(c), nz(c), gy)
    var i = 0
    while (i < nodes.length) {
      val gy = gys(i)
      var o = 0
      while (o < out) { b.g(o) += gy(o); o += 1 }
      add(ws, i, gy)
      add(wl, left(i), gy)
      add(wr, right(i), gy)
      i += 1
    }
  }
}

/** Dynamic max pooling over nodes → a fixed-size plan summary (§3.2). */
object MaxPool {
  def forward(nodes: Array[Array[Double]]): (Array[Double], Array[Int]) = {
    val d = nodes(0).length
    val y = new Array[Double](d)
    val arg = new Array[Int](d)
    var j = 0
    while (j < d) {
      var best = nodes(0)(j); var bi = 0
      var i = 1
      while (i < nodes.length) {
        if (nodes(i)(j) > best) { best = nodes(i)(j); bi = i }
        i += 1
      }
      y(j) = best; arg(j) = bi; j += 1
    }
    (y, arg)
  }

  def backward(nNodes: Int, arg: Array[Int], gy: Array[Double]): Array[Array[Double]] = {
    val gxs = Array.fill(nNodes)(new Array[Double](gy.length))
    var j = 0
    while (j < gy.length) { gxs(arg(j))(j) += gy(j); j += 1 }
    gxs
  }
}

object NnOps {
  /** Ascending indices of the non-zero entries of `x`. */
  def nonZeros(x: Array[Double]): Array[Int] = {
    var count = 0
    var i = 0
    while (i < x.length) { if (x(i) != 0) count += 1; i += 1 }
    val nz = new Array[Int](count)
    var k = 0
    i = 0
    while (i < x.length) { if (x(i) != 0) { nz(k) = i; k += 1 }; i += 1 }
    nz
  }

  /** `s(o) += w(o, i)·x(i)` for each row `o` of the row-major `s.length × in`
    * matrix `w`, adding the terms one at a time in ascending `i`. `nz` holds
    * the ascending indices of `x`'s non-zeros. When at most half of `x` is
    * non-zero, only those terms are added: a skipped term is `w·0`, which
    * changes no sum, so the result equals the dense product. Denser inputs
    * take the plain loop, whose direct indexing is then the faster one.
    */
  def addRows(w: Array[Double], in: Int, x: Array[Double], nz: Array[Int],
              s: Array[Double]): Unit = {
    val sparse = 2 * nz.length <= in
    var o = 0
    while (o < s.length) {
      val base = o * in
      var a = s(o)
      if (sparse) {
        var k = 0
        while (k < nz.length) { val i = nz(k); a += w(base + i) * x(i); k += 1 }
      } else {
        var i = 0
        while (i < in) { a += w(base + i) * x(i); i += 1 }
      }
      s(o) = a; o += 1
    }
  }

  /** `gx(i) += w.v(o, i)·gy(o)` for the row-major `gy.length × gx.length`
    * weight `w`, row by row in ascending `o`, skipping every row whose
    * `gy(o)` is 0. A skipped term is `w·0`, and on finite values it changes
    * no sum: an accumulator that starts at +0 and only adds never holds −0.
    * So `gx` equals the dense loop's bit for bit.
    */
  def addInputGrad(w: Param, gy: Array[Double], gx: Array[Double]): Unit = {
    val in = gx.length
    var o = 0
    while (o < gy.length) {
      val go = gy(o)
      if (go != 0) {
        val base = o * in
        var i = 0
        while (i < in) { gx(i) += w.v(base + i) * go; i += 1 }
      }
      o += 1
    }
  }

  /** `w.g(o, i) += gy(o)·x(i)` for the row-major `gy.length × x.length`
    * weight `w`, skipping every row whose `gy(o)` is 0. `nz` holds the
    * ascending indices of `x`'s non-zeros; when at most half of `x` is
    * non-zero, only those columns are visited, column by column. Each entry
    * of `w.g` takes one term per call, and a skipped term is `0·x` or
    * `gy·0`, so as in [[addInputGrad]] the result equals the dense loop's
    * bit for bit.
    */
  def addWeightGrad(w: Param, x: Array[Double], nz: Array[Int], gy: Array[Double]): Unit = {
    val in = x.length
    if (2 * nz.length <= in) {
      var k = 0
      while (k < nz.length) {
        val i = nz(k); val xi = x(i)
        var o = 0
        while (o < gy.length) {
          val go = gy(o)
          if (go != 0) w.g(o * in + i) += go * xi
          o += 1
        }
        k += 1
      }
    } else {
      var o = 0
      while (o < gy.length) {
        val go = gy(o)
        if (go != 0) {
          val base = o * in
          var i = 0
          while (i < in) { w.g(base + i) += go * x(i); i += 1 }
        }
        o += 1
      }
    }
  }

  @inline def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  /** Binary cross-entropy on a logit; returns (loss, dLoss/dLogit). */
  def bceWithLogit(logit: Double, label: Double): (Double, Double) = {
    val p = sigmoid(logit)
    val eps = 1e-12
    val loss = -(label * math.log(p + eps) + (1 - label) * math.log(1 - p + eps))
    (loss, p - label)
  }
}
