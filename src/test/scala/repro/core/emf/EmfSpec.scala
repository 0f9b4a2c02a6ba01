package repro.core.emf

import org.scalatest.funsuite.AnyFunSuite
import repro.core.encode.{DbAgnostic, EncodedPlan, EncoderConfig, NodeVector}
import repro.core.ir.Catalogs
import repro.core.sf.SchemaFilter
import repro.gen.Workloads
import repro.ml.Confusion
import scala.util.Random

class EmfSpec extends AnyFunSuite {

  private val tpchCfg  = EncoderConfig.forSchema(Catalogs.tpchLite)
  private val tpcdsCfg = EncoderConfig.forSchema(Catalogs.tpcdsLite)

  private def asTriples(pairs: Seq[Workloads.LabeledPair]) =
    pairs.map(lp => (lp.a, lp.b, lp.label))

  test("full-model gradient check (dropout 0)") {
    val emf = new Emf(seed = 1, dropout = 0.0)
    val pair = Workloads.labeledPairs(Catalogs.tpchLite, 2, seed = 1).head
    val (a, b) = emf.encodePair(pair.a, pair.b, tpchCfg)
    val eps = 1e-5
    emf.model.params.foreach(_.zeroGrad())
    emf.model.accumulateGradients(a, b, pair.label)
    val rng = new Random(2)
    var checked = 0
    emf.model.params.foreach { p =>
      for (_ <- 0 until 4) {
        val i = rng.nextInt(p.size)
        val orig = p.v(i)
        p.v(i) = orig + eps; val up = emf.model.loss(a, b, pair.label)
        p.v(i) = orig - eps; val dn = emf.model.loss(a, b, pair.label)
        p.v(i) = orig
        val num = (up - dn) / (2 * eps)
        assert(math.abs(num - p.g(i)) < 1e-3 * math.max(1.0, math.abs(num)),
          s"numeric=$num analytic=${p.g(i)}")
        checked += 1
      }
    }
    assert(checked >= 40)
  }

  test("training reduces loss") {
    val emf = new Emf(seed = 3, dropout = 0.2)
    val data = emf.encodeDataset(asTriples(
      Workloads.labeledPairs(Catalogs.tpchLite, 200, seed = 3)), tpchCfg)
    val first = emf.model.trainEpoch(data)
    var last = first
    for (_ <- 0 until 7) last = emf.model.trainEpoch(data)
    assert(last < first * 0.7, s"loss $first -> $last")
  }

  test("training reproduces the recorded one-thread parameters bit for bit") {
    // Recorded from the one-thread trainer, which ran each example's
    // forward and backward pass in turn: a 64-bit fold of every parameter's
    // raw bits and each epoch's mean loss after two epochs on 80 pairs
    // (batches of 32, 32 and 16). A different summation order in any
    // gradient, or a dropout mask drawn out of order, changes the fold.
    val recorded = Seq(
      0.2 -> (0x130b25c51b7b2535L, Seq(0x3fe64c828a27f79bL, 0x3fe5eb61e697e4faL)),
      0.0 -> (0x41ba42a60c293bbfL, Seq(0x3fe641f5b6237584L, 0x3fe59fa600c08020L)))
    for ((dropout, (fold, losses)) <- recorded) {
      val emf = new Emf(seed = 21, dropout = dropout)
      val data = emf.encodeDataset(asTriples(
        Workloads.labeledPairs(Catalogs.tpchLite, 80, seed = 21)), tpchCfg)
      val got = Seq.fill(2)(emf.model.trainEpoch(data)).map(java.lang.Double.doubleToRawLongBits)
      var h = 0L
      emf.model.params.foreach(_.v.foreach(x => h = h * 31 + java.lang.Double.doubleToRawLongBits(x)))
      assert(got == losses, s"dropout $dropout: epoch losses")
      assert(h == fold, f"dropout $dropout: parameter fold $h%016x")
    }
  }

  test("EMF learns equivalence on TPC-H and transfers to TPC-DS") {
    val emf = new Emf(seed = 4, dropout = 0.2)
    val train = asTriples(Workloads.labeledPairs(Catalogs.tpchLite, 700, seed = 4))
    emf.fit(train, tpchCfg, epochs = 14)

    def eval(pairs: Seq[(repro.core.ir.Ir.Plan, repro.core.ir.Ir.Plan, Boolean)],
             cfg: EncoderConfig): Confusion =
      Confusion.of(pairs.map(p => emf.predict(p._1, p._2, cfg)), pairs.map(_._3))

    val heldOut = eval(asTriples(Workloads.labeledPairs(Catalogs.tpchLite, 200, seed = 5)), tpchCfg)
    assert(heldOut.accuracy > 0.80, s"held-out accuracy ${heldOut.accuracy}")

    val transfer = eval(asTriples(Workloads.labeledPairs(Catalogs.tpcdsLite, 200, seed = 6)), tpcdsCfg)
    assert(transfer.accuracy > 0.72, s"transfer accuracy ${transfer.accuracy}")
  }

  test("fine-tuning a degenerate model improves it (incremental training works)") {
    val emf = new Emf(seed = 7, dropout = 0.2)
    // Degenerate: single-table queries only (the §7.3 setup).
    val degenerate = asTriples(
      Workloads.labeledPairs(Catalogs.tpchLite, 300, seed = 7, maxTables = 1))
    emf.fit(degenerate, tpchCfg, epochs = 8)

    val test = asTriples(Workloads.labeledPairs(Catalogs.tpcdsLite, 150, seed = 8))
    def acc(): Double =
      Confusion.of(test.map(p => emf.predict(p._1, p._2, tpcdsCfg)), test.map(_._3)).accuracy

    val before = acc()
    val newData = asTriples(Workloads.labeledPairs(Catalogs.tpcdsLite, 400, seed = 9))
    emf.fit(newData, tpcdsCfg, epochs = 8) // fine-tune, optimizer state kept
    val after = acc()
    assert(after > before - 0.02, s"fine-tuning regressed: $before -> $after")
    assert(after > 0.7, s"after fine-tuning accuracy $after")
  }

  test("predictions are symmetric-ish probabilities in [0,1]") {
    val emf = new Emf(seed = 10)
    val pairs = Workloads.labeledPairs(Catalogs.tpchLite, 20, seed = 10)
    pairs.foreach { lp =>
      val p = emf.predictProb(lp.a, lp.b, tpchCfg)
      assert(p >= 0.0 && p <= 1.0)
    }
  }

  test("embed returns fixed-size finite summaries") {
    val emf = new Emf(seed = 11)
    val pairs = Workloads.labeledPairs(Catalogs.tpchLite, 10, seed = 11)
    pairs.foreach { lp =>
      val (a, b) = emf.encodePair(lp.a, lp.b, tpchCfg)
      val e = emf.model.embed(a)
      assert(e.length == emf.model.embedDim)
      e.foreach(x => assert(!x.isNaN && !x.isInfinite))
      assert(emf.model.embed(b).length == emf.model.embedDim)
    }
  }

  test("batch scorer equals per-pair predictProb, also after fine-tuning") {
    val emf = new Emf(seed = 14)
    val lps = Workloads.labeledPairs(Catalogs.tpchLite, 8, seed = 14)
    val base = lps.flatMap(lp => Seq(lp.a, lp.b)).toVector
    val baseEnc = base.map(NodeVector.encodeInstance(_, tpchCfg))
    def content(ep: EncodedPlan) = (ep.nodes.map(_.toSeq).toSeq, ep.left.toSeq, ep.right.toSeq)
    def asFirst(enc: IndexedSeq[EncodedPlan], i: Int, j: Int) =
      content(DbAgnostic.encodePair(enc(i), enc(j), tpchCfg, emf.agn)._1)
    // A plan that converts differently under different partners' union
    // masks; it occurs twice in the workload.
    val shifted = base.indices.find(i => base.indices.filter(_ != i).map(asFirst(baseEnc, i, _)).distinct.size > 1)
    assert(shifted.isDefined, "no plan's conversion depends on its partner")
    val plans = base :+ base(shifted.get)
    val enc = plans.map(NodeVector.encodeInstance(_, tpchCfg))
    val pairs = SchemaFilter.pairs(plans.indices).toVector
    val converted = pairs.map { case (i, j) => DbAgnostic.encodePair(enc(i), enc(j), tpchCfg, emf.agn) }
    def perPair(): Seq[Double] = converted.map { case (a, b) => emf.model.predictProb(a, b) }
    val inputs = converted.flatMap { case (a, b) => Seq(content(a), content(b)) }
    assert(inputs.distinct.size < inputs.size, "no tower input repeats")
    // Enough pairs that the parallel scorer splits them over every worker:
    // each score is exact, and a second call returns the same array.
    val wide = Workloads.labeledPairs(Catalogs.tpchLite, 32, seed = 15)
      .flatMap(lp => Seq(lp.a, lp.b)).toVector
    val wideEnc = wide.map(NodeVector.encodeInstance(_, tpchCfg))
    val widePairs = SchemaFilter.pairs(wide.indices).toVector
    assert(widePairs.size >= 2000)
    def wideExact(): Unit = {
      val got = emf.predictProbs(wideEnc, widePairs, tpchCfg)
      assert(got.toSeq == widePairs.map { case (i, j) =>
        val (a, b) = DbAgnostic.encodePair(wideEnc(i), wideEnc(j), tpchCfg, emf.agn)
        emf.model.predictProb(a, b)
      })
      assert(emf.predictProbs(wideEnc, widePairs, tpchCfg).sameElements(got))
    }

    val before = emf.predictProbs(enc, pairs, tpchCfg)
    assert(before.toSeq == perPair())
    pairs.zip(before).foreach { case ((i, j), p) =>
      assert(emf.predictProbInstanceEncoded(enc(i), enc(j), tpchCfg) == p)
    }
    wideExact()

    val train = lps.map(lp => (lp.a, lp.b, lp.label))
    emf.fit(train, tpchCfg, epochs = 1, batchSize = train.size)
    val after = emf.predictProbs(enc, pairs, tpchCfg)
    assert(after.toSeq != before.toSeq, "fine-tuning left the model unchanged")
    assert(after.toSeq == perPair())
    wideExact()
  }

  test("pooledFeatures has the 2×|NV| concat layout for RF/LR baselines") {
    val emf = new Emf(seed = 12)
    val lp = Workloads.labeledPairs(Catalogs.tpchLite, 2, seed = 12).head
    val f = emf.pooledFeatures(lp.a, lp.b, tpchCfg)
    assert(f.length == 2 * emf.agn.nvSize)
  }

  test("model size and parameter count are reported") {
    val emf = new Emf(seed = 13)
    assert(emf.model.paramCount > 10000)
  }
}
