package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Numerical gradient checks for every layer, plus learnability smoke tests
  * — the correctness foundation under the EMF (a wrong backward pass shows
  * up as silent accuracy loss, not a crash).
  */
class NnSpec extends AnyFunSuite {

  private val eps = 1e-6
  private val tol = 1e-4

  private def numericVsAnalytic(p: Param, analytic: Array[Double],
                                lossFn: () => Double, samples: Int = 20,
                                rng: Random = new Random(3)): Unit = {
    for (_ <- 0 until samples) {
      val i = rng.nextInt(p.size)
      val orig = p.v(i)
      p.v(i) = orig + eps; val up = lossFn()
      p.v(i) = orig - eps; val dn = lossFn()
      p.v(i) = orig
      val num = (up - dn) / (2 * eps)
      assert(math.abs(num - analytic(i)) < tol * math.max(1.0, math.abs(num)),
        s"param[$i]: numeric=$num analytic=${analytic(i)}")
    }
  }

  test("Dense gradient check (weights, bias, input)") {
    val rng = new Random(1)
    val layer = new Dense(7, 5, rng)
    val x = Array.fill(7)(rng.nextDouble() * 2 - 1)
    val gy = Array.fill(5)(rng.nextDouble() * 2 - 1)
    def loss(): Double = layer.forward(x).zip(gy).map { case (a, b) => a * b }.sum

    layer.params.foreach(_.zeroGrad())
    layer.addGrads(x, gy)
    val gx = layer.inputGrad(gy)
    numericVsAnalytic(layer.w, layer.w.g, loss)
    numericVsAnalytic(layer.b, layer.b.g, loss, samples = 5)
    // Input gradient via perturbation.
    for (i <- x.indices) {
      val o = x(i)
      x(i) = o + eps; val up = loss()
      x(i) = o - eps; val dn = loss()
      x(i) = o
      assert(math.abs((up - dn) / (2 * eps) - gx(i)) < tol)
    }
  }

  test("PReLU gradient check including alpha") {
    val rng = new Random(2)
    val layer = new PRelu(rng)
    val x = Array(-1.5, -0.2, 0.0, 0.3, 2.0)
    val gy = Array.fill(5)(rng.nextDouble() * 2 - 1)
    def loss(): Double = layer.forward(x).zip(gy).map { case (a, b) => a * b }.sum
    layer.alpha.zeroGrad()
    layer.addGrads(x, gy)
    val gx = layer.inputGrad(x, gy)
    numericVsAnalytic(layer.alpha, layer.alpha.g, loss, samples = 1)
    for (i <- x.indices if x(i) != 0.0) {
      val o = x(i)
      x(i) = o + eps; val up = loss()
      x(i) = o - eps; val dn = loss()
      x(i) = o
      assert(math.abs((up - dn) / (2 * eps) - gx(i)) < tol, s"i=$i")
    }
  }

  test("TreeConv gradient check on a 5-node tree") {
    val rng = new Random(4)
    val layer = new TreeConv(6, 4, rng)
    //      0
    //     / \
    //    1   2
    //   / \
    //  3   4
    val left  = Array(1, 3, -1, -1, -1)
    val right = Array(2, 4, -1, -1, -1)
    val nodes = Array.fill(5)(Array.fill(6)(rng.nextDouble() * 2 - 1))
    val gys   = Array.fill(5)(Array.fill(4)(rng.nextDouble() * 2 - 1))
    def loss(): Double =
      layer.forward(nodes, left, right).zip(gys)
        .map { case (y, g) => y.zip(g).map { case (a, b) => a * b }.sum }.sum

    layer.params.foreach(_.zeroGrad())
    layer.addGrads(nodes, left, right, gys)
    val gxs = layer.inputGrads(left, right, gys)
    numericVsAnalytic(layer.ws, layer.ws.g, loss)
    numericVsAnalytic(layer.wl, layer.wl.g, loss)
    numericVsAnalytic(layer.wr, layer.wr.g, loss)
    numericVsAnalytic(layer.b, layer.b.g, loss, samples = 4)
    // Input gradients (node 1 feeds itself, its parent's wl, and children slots).
    for (n <- 0 until 5; i <- 0 until 6) {
      val o = nodes(n)(i)
      nodes(n)(i) = o + eps; val up = loss()
      nodes(n)(i) = o - eps; val dn = loss()
      nodes(n)(i) = o
      assert(math.abs((up - dn) / (2 * eps) - gxs(n)(i)) < tol, s"node=$n i=$i")
    }
  }

  test("TreeConv and Dense on sparse inputs equal a dense mat-vec reference exactly") {
    val rng = new Random(8)
    val (in, out) = (78, 64)
    val layer = new TreeConv(in, out, rng)
    layer.b.initUniform(rng, 0.5)
    val left  = Array(1, 3, -1, -1, -1)
    val right = Array(2, 4, -1, -1, -1)
    // One-hot segments (1–5 non-zeros), non-unit constants, one dense node
    // and one all-zero node.
    val nodes = Array.fill(5)(new Array[Double](in))
    for (n <- Seq(0, 2, 3); _ <- 0 until 1 + rng.nextInt(5)) nodes(n)(rng.nextInt(in)) = 1.0
    nodes(2)(40) = -0.3; nodes(3)(77) = 2.5
    nodes(1) = Array.fill(in)(rng.nextDouble() * 2 - 1)

    def matVec(w: Param, x: Array[Double], o: Int): Double = {
      var s = 0.0
      for (i <- 0 until in) s += w.v(o * in + i) * x(i)
      s
    }
    val want = Array.tabulate(5, out) { (n, o) =>
      var y = matVec(layer.ws, nodes(n), o)
      if (left(n) >= 0) y += matVec(layer.wl, nodes(left(n)), o)
      if (right(n) >= 0) y += matVec(layer.wr, nodes(right(n)), o)
      y + layer.b.v(o)
    }
    val got = layer.forward(nodes, left, right)
    for (n <- 0 until 5; o <- 0 until out)
      assert(got(n)(o) == want(n)(o), s"node=$n out=$o: ${got(n)(o)} vs ${want(n)(o)}")

    // Dense shares the row sums; its reference starts each sum at the bias.
    val fc = new Dense(in, 7, rng)
    fc.b.initUniform(rng, 0.5)
    for (x <- nodes) {
      val dense = Array.tabulate(7) { o =>
        var s = fc.b.v(o)
        for (i <- 0 until in) s += fc.w.v(o * in + i) * x(i)
        s
      }
      assert(fc.forward(x).toSeq == dense.toSeq)
    }
  }

  test("TreeConv and Dense backward skip zero rows and inputs and equal a dense reference exactly") {
    val rng = new Random(10)
    val (in, out) = (78, 16)
    val left  = Array(1, 3, -1, -1, -1)
    val right = Array(2, 4, -1, -1, -1)
    // One-hot nodes (one with non-unit constants), a dense node and an
    // all-zero node.
    val nodes = Array.fill(5)(new Array[Double](in))
    for (n <- Seq(0, 2, 3); _ <- 0 until 1 + rng.nextInt(5)) nodes(n)(rng.nextInt(in)) = 1.0
    nodes(2)(40) = -0.3; nodes(3)(77) = 2.5
    nodes(1) = Array.fill(in)(rng.nextDouble() * 2 - 1)
    // Output gradients as max pooling leaves them: a few non-zero rows per
    // node, and one node with none.
    val gys = Array.fill(5)(new Array[Double](out))
    for (n <- Seq(0, 1, 3, 4); _ <- 0 until 1 + rng.nextInt(4)) gys(n)(rng.nextInt(out)) = rng.nextDouble() * 2 - 1
    gys(1)(out - 1) = -0.0

    // Gradients start non-zero, so that the test also sees accumulation.
    def seeded(ps: Seq[Param]): Seq[Array[Double]] = {
      ps.foreach(p => for (i <- 0 until p.size) p.g(i) = rng.nextDouble() - 0.5)
      ps.map(_.g.clone())
    }
    def same(ps: Seq[Param], want: Seq[Array[Double]]): Unit =
      ps.zip(want).foreach { case (p, w) => assert(p.g.toSeq == w.toSeq) }

    // The dense reference: every row, every input, in the layers' order.
    def refBack(w: Param, g: Array[Double], x: Array[Double], gy: Array[Double],
                gx: Array[Double]): Unit =
      for (o <- gy.indices; i <- x.indices) {
        g(o * x.length + i) += gy(o) * x(i)
        gx(i) += w.v(o * x.length + i) * gy(o)
      }

    val conv = new TreeConv(in, out, rng)
    val want = seeded(conv.params)
    val wantGx = Array.fill(5)(new Array[Double](in))
    for (n <- 0 until 5) {
      for (o <- 0 until out) want(3)(o) += gys(n)(o)
      refBack(conv.ws, want(0), nodes(n), gys(n), wantGx(n))
      if (left(n) >= 0) refBack(conv.wl, want(1), nodes(left(n)), gys(n), wantGx(left(n)))
      if (right(n) >= 0) refBack(conv.wr, want(2), nodes(right(n)), gys(n), wantGx(right(n)))
    }
    conv.addGrads(nodes, left, right, gys)
    same(conv.params, want)
    val gxs = conv.inputGrads(left, right, gys)
    for (n <- 0 until 5) assert(gxs(n).toSeq == wantGx(n).toSeq, s"node=$n")

    val fc = new Dense(in, out, rng)
    for (n <- 0 until 5) {
      val Seq(wantW, wantB) = seeded(fc.params)
      val wantX = new Array[Double](in)
      refBack(fc.w, wantW, nodes(n), gys(n), wantX)
      for (o <- 0 until out) wantB(o) += gys(n)(o)
      fc.addGrads(nodes(n), gys(n))
      same(fc.params, Seq(wantW, wantB))
      assert(fc.inputGrad(gys(n)).toSeq == wantX.toSeq, s"node=$n")
    }
  }

  test("MaxPool routes gradient to the argmax") {
    val nodes = Array(Array(1.0, 5.0), Array(3.0, 2.0), Array(2.0, 4.0))
    val (y, arg) = MaxPool.forward(nodes)
    assert(y.toSeq == Seq(3.0, 5.0))
    assert(arg.toSeq == Seq(1, 0))
    val gxs = MaxPool.backward(3, arg, Array(10.0, 20.0))
    assert(gxs(1)(0) == 10.0 && gxs(0)(1) == 20.0)
    assert(gxs(2).forall(_ == 0.0))
  }

  test("Dropout scales kept units and zeroes dropped ones; identity at inference") {
    val rng = new Random(5)
    val d = new Dropout(0.5)
    val x = Array.fill(1000)(1.0)
    val mask = d.drawMask(x.length, rng)
    val y = d(x, mask)
    val kept = y.count(_ != 0.0)
    assert(kept > 350 && kept < 650)
    y.filter(_ != 0.0).foreach(v => assert(math.abs(v - 2.0) < 1e-9))
    val gx = d(Array.fill(1000)(1.0), mask)
    assert(gx.toSeq == y.toSeq)
    assert(d(x, null).eq(x))
    // Dropout 0 draws nothing from the generator.
    val (r1, r2) = (new Random(9), new Random(9))
    assert(new Dropout(0.0).drawMask(1000, r1) == null)
    assert(r1.nextLong() == r2.nextLong())
  }

  test("Adam decreases a quadratic loss") {
    val p = new Param(1, 4).initUniform(new Random(6), 5.0)
    val opt = new Adam(Seq(p), lr = 0.1, wd = 0.0)
    def loss(): Double = p.v.map(v => (v - 1.0) * (v - 1.0)).sum
    val before = loss()
    for (_ <- 0 until 200) {
      opt.zeroGrad()
      for (i <- 0 until 4) p.g(i) = 2 * (p.v(i) - 1.0)
      opt.step(1)
    }
    assert(loss() < before * 0.01, s"${loss()} vs $before")
  }

  test("sigmoid and BCE basics") {
    assert(math.abs(NnOps.sigmoid(0.0) - 0.5) < 1e-12)
    val (l1, d1) = NnOps.bceWithLogit(10.0, 1.0)
    assert(l1 < 0.01 && math.abs(d1) < 0.01)
    val (l0, d0) = NnOps.bceWithLogit(10.0, 0.0)
    assert(l0 > 5 && d0 > 0.9)
  }

  test("a Dense+PReLU network learns XOR") {
    val rng = new Random(7)
    val h = new Dense(2, 8, rng)
    val a = new PRelu(rng)
    val o = new Dense(8, 1, rng)
    val opt = new Adam(h.params ++ a.params ++ o.params, lr = 0.01, wd = 0.0)
    val data = Seq((Array(0.0, 0.0), 0.0), (Array(0.0, 1.0), 1.0),
                   (Array(1.0, 0.0), 1.0), (Array(1.0, 1.0), 0.0))
    for (_ <- 0 until 2000) {
      opt.zeroGrad()
      data.foreach { case (x, label) =>
        val z1 = h.forward(x); val a1 = a.forward(z1)
        val logit = o.forward(a1)(0)
        val (_, d) = NnOps.bceWithLogit(logit, label)
        o.addGrads(a1, Array(d))
        val gA1 = o.inputGrad(Array(d))
        a.addGrads(z1, gA1)
        h.addGrads(x, a.inputGrad(z1, gA1))
      }
      opt.step(data.size)
    }
    data.foreach { case (x, label) =>
      val p = NnOps.sigmoid(o.forward(a.forward(h.forward(x)))(0))
      assert(math.abs(p - label) < 0.2, s"x=${x.toSeq} p=$p want $label")
    }
  }
}
