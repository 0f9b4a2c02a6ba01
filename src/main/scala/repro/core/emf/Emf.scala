package repro.core.emf

import java.util.concurrent.ConcurrentHashMap
import repro.Par
import repro.core.encode.{DbAgnostic, EncodedPlan, EncoderConfig, NodeVector}
import repro.core.ir.Ir.Plan
import repro.ml._
import scala.util.Random

/** The Equivalence Model Filter network (§5): two tree-convolution layers
  * with PReLU activations, dynamic max pooling into a fixed-size summary of
  * each subexpression, then three fully connected layers with dropout
  * classifying the pair. Trained with Adam (lr 1e-3, weight decay 5e-4) on
  * BCE loss. Incremental fine-tuning (the property that made the paper pick
  * an MLP over RF/LR) works by construction: optimizer state persists across
  * `fit` calls.
  *
  * Deviation noted in DESIGN.md: the FC input is the siamese pairing
  * `[e1, e2, |e1−e2|, e1⊙e2]` and batch norm is omitted.
  *
  * Scoring (`embed`, `logit`, `loss`, `predictProb`, `predictProbEmbedded`)
  * reads the parameters only and draws no random numbers, so it is safe to
  * call from several threads at once. Training (`fit`, `trainEpoch`,
  * `accumulateGradients`) writes the parameters, the gradients and the
  * shared generator, so nothing else may use the model while it runs: no
  * scoring and no second training call.
  *
  * `trainEpoch` gives the parameters of a one-thread run, bit for bit. Each
  * minibatch draws its examples' dropout masks on the calling thread, in the
  * one-thread order (example by example, `drop1` then `drop2`, from the one
  * generator). It then runs each example's forward pass and the input half
  * of its backward pass (every layer's output gradient) in parallel through
  * `repro.Par.tabulate`; these only read the parameters. Next it adds the
  * examples' terms to the shared gradients in example order. That work is
  * split into three groups of layers that share no parameter, run side by
  * side, so every gradient sum adds its terms in the one-thread order. Last
  * it takes one Adam step.
  */
final class EmfModel(val nvSize: Int, dropout: Double = 0.5, seed: Long = 42) {
  import EmfModel._
  private val rng = new Random(seed)

  val conv1 = new TreeConv(nvSize, Conv1Out, rng)
  val act1  = new PRelu(rng)
  val conv2 = new TreeConv(Conv1Out, Conv2Out, rng)
  val act2  = new PRelu(rng)
  val fc1   = new Dense(4 * Conv2Out, Fc1Out, rng)
  val actF1 = new PRelu(rng)
  val drop1 = new Dropout(dropout)
  val fc2   = new Dense(Fc1Out, Fc2Out, rng)
  val actF2 = new PRelu(rng)
  val drop2 = new Dropout(dropout)
  val fc3   = new Dense(Fc2Out, 1, rng)

  val params: Seq[Param] =
    conv1.params ++ act1.params ++ conv2.params ++ act2.params ++
      fc1.params ++ actF1.params ++ fc2.params ++ actF2.params ++ fc3.params
  private val opt = new Adam(params)

  def paramCount: Long = params.map(_.size.toLong).sum

  /** The embedding dimension h of a plan summary (§3.2). */
  def embedDim: Int = conv2.out

  // ---------------------------------------------------------------------
  // Tower: encoded plan → fixed-size summary, with saved intermediates.
  // ---------------------------------------------------------------------
  private final case class TowerCtx(ep: EncodedPlan,
                                    h1: Array[Array[Double]], a1: Array[Array[Double]],
                                    h2: Array[Array[Double]], a2: Array[Array[Double]],
                                    pooled: Array[Double], arg: Array[Int])

  private def towerForward(ep: EncodedPlan): TowerCtx = {
    val h1 = conv1.forward(ep.nodes, ep.left, ep.right)
    val a1 = h1.map(act1.forward)
    val h2 = conv2.forward(a1, ep.left, ep.right)
    val a2 = h2.map(act2.forward)
    val (pooled, arg) = MaxPool.forward(a2)
    TowerCtx(ep, h1, a1, h2, a2, pooled, arg)
  }

  /** A tower's output gradients, one row per node: of `act2` (`gA2`),
    * `conv2` (`gH2`), `act1` (`gA1`) and `conv1` (`gH1`). The input gradient
    * of `conv1` is never needed, so it is not computed.
    */
  private final case class TowerGrads(gA2: Array[Array[Double]], gH2: Array[Array[Double]],
                                      gA1: Array[Array[Double]], gH1: Array[Array[Double]])

  private def towerGrads(t: TowerCtx, gPooled: Array[Double]): TowerGrads = {
    val gA2 = MaxPool.backward(t.a2.length, t.arg, gPooled)
    val gH2 = Array.tabulate(gA2.length)(i => act2.inputGrad(t.h2(i), gA2(i)))
    val gA1 = conv2.inputGrads(t.ep.left, t.ep.right, gH2)
    val gH1 = Array.tabulate(gA1.length)(i => act1.inputGrad(t.h1(i), gA1(i)))
    TowerGrads(gA2, gH2, gA1, gH1)
  }

  /** Plan summary via the trained tree convolutions — this is the embedding
    * the VMF reuses (§2.2: "the VMF utilizes the learned tree convolution
    * from EMF").
    */
  def embed(ep: EncodedPlan): Array[Double] = towerForward(ep).pooled

  // ---------------------------------------------------------------------
  // Pair head.
  // ---------------------------------------------------------------------
  private def pairFeatures(e1: Array[Double], e2: Array[Double]): Array[Double] = {
    val d = e1.length
    val z = new Array[Double](4 * d)
    var i = 0
    while (i < d) {
      z(i) = e1(i); z(d + i) = e2(i)
      z(2 * d + i) = math.abs(e1(i) - e2(i))
      z(3 * d + i) = e1(i) * e2(i)
      i += 1
    }
    z
  }

  /** One training example's dropout masks; a mask is null when dropout is 0. */
  private final case class Masks(m1: Array[Double], m2: Array[Double])
  private val NoMasks = Masks(null, null)

  /** Draws the next example's masks from `rng`, `drop1`'s first. */
  private def drawMasks(): Masks = {
    val m1 = drop1.drawMask(Fc1Out, rng)
    Masks(m1, drop2.drawMask(Fc2Out, rng))
  }

  private final case class HeadCtx(z: Array[Double],
                                   y1: Array[Double], d1: Array[Double],
                                   y2: Array[Double], d2: Array[Double],
                                   logit: Double)

  /** The pair head over two tower outputs; the only copy, shared by training
    * and inference. `masks` holds the example's dropout masks when training
    * and is `None` at inference, which applies no dropout.
    */
  private def headForward(e1: Array[Double], e2: Array[Double],
                          masks: Option[Masks]): HeadCtx = {
    val m  = masks.getOrElse(NoMasks)
    val z  = pairFeatures(e1, e2)
    val y1 = fc1.forward(z)
    val d1 = drop1(actF1.forward(y1), m.m1)
    val y2 = fc2.forward(d1)
    val d2 = drop2(actF2.forward(y2), m.m2)
    val logit = fc3.forward(d2)(0)
    HeadCtx(z, y1, d1, y2, d2, logit)
  }

  private final case class PairCtx(t1: TowerCtx, t2: TowerCtx, head: HeadCtx)

  private def pairForward(a: EncodedPlan, b: EncodedPlan, masks: Option[Masks]): PairCtx = {
    val t1 = towerForward(a)
    val t2 = towerForward(b)
    PairCtx(t1, t2, headForward(t1.pooled, t2.pooled, masks))
  }

  /** One training example's forward pass, its loss, and every layer's
    * output gradient (`gP*` of the head's activations, `gY*` of its dense
    * layers).
    */
  private final case class Backprop(ctx: PairCtx, loss: Double, gLogit: Array[Double],
                                    gP2: Array[Double], gY2: Array[Double],
                                    gP1: Array[Double], gY1: Array[Double],
                                    t1: TowerGrads, t2: TowerGrads)

  /** Reads the parameters only. */
  private def backprop(a: EncodedPlan, b: EncodedPlan, label: Boolean, masks: Masks): Backprop = {
    val ctx = pairForward(a, b, Some(masks))
    val h = ctx.head
    val (loss, dLogit) = NnOps.bceWithLogit(h.logit, if (label) 1.0 else 0.0)
    val gLogit = Array(dLogit)
    val gP2 = drop2(fc3.inputGrad(gLogit), masks.m2)
    val gY2 = actF2.inputGrad(h.y2, gP2)
    val gP1 = drop1(fc2.inputGrad(gY2), masks.m1)
    val gY1 = actF1.inputGrad(h.y1, gP1)
    val gZ  = fc1.inputGrad(gY1)
    // Split pair-feature gradient back to the two summaries.
    val d = ctx.t1.pooled.length
    val g1 = new Array[Double](d)
    val g2 = new Array[Double](d)
    var i = 0
    while (i < d) {
      val e1 = ctx.t1.pooled(i); val e2 = ctx.t2.pooled(i)
      val sgn = if (e1 - e2 >= 0) 1.0 else -1.0
      g1(i) = gZ(i) + gZ(2 * d + i) * sgn + gZ(3 * d + i) * e2
      g2(i) = gZ(d + i) - gZ(2 * d + i) * sgn + gZ(3 * d + i) * e1
      i += 1
    }
    Backprop(ctx, loss, gLogit, gP2, gY2, gP1, gY1, towerGrads(ctx.t1, g1), towerGrads(ctx.t2, g2))
  }

  /** Adds one example's terms to the gradients, in three groups that share
    * no parameter, so that the groups may run side by side. Within a group,
    * each gradient takes the example's terms in a one-example backward
    * pass's order: node by node, tower `t1` before `t2`.
    */
  private val gradGroups: Seq[Backprop => Unit] = Seq(
    { s =>
      val h = s.ctx.head
      fc3.addGrads(h.d2, s.gLogit)
      actF2.addGrads(h.y2, s.gP2)
      fc2.addGrads(h.d1, s.gY2)
      actF1.addGrads(h.y1, s.gP1)
      fc1.addGrads(h.z, s.gY1)
    },
    { s =>
      for ((t, g) <- Seq(s.ctx.t1 -> s.t1, s.ctx.t2 -> s.t2)) {
        t.h2.indices.foreach(i => act2.addGrads(t.h2(i), g.gA2(i)))
        conv2.addGrads(t.a1, t.ep.left, t.ep.right, g.gH2)
      }
    },
    { s =>
      for ((t, g) <- Seq(s.ctx.t1 -> s.t1, s.ctx.t2 -> s.t2)) {
        t.h1.indices.foreach(i => act1.addGrads(t.h1(i), g.gA1(i)))
        conv1.addGrads(t.ep.nodes, t.ep.left, t.ep.right, g.gH1)
      }
    })

  def logit(a: EncodedPlan, b: EncodedPlan): Double =
    pairForward(a, b, None).head.logit

  /** BCE loss of one pair (no gradient side effects; inference mode). */
  def loss(a: EncodedPlan, b: EncodedPlan, label: Boolean): Double =
    NnOps.bceWithLogit(logit(a, b), if (label) 1.0 else 0.0)._1

  /** Forward+backward of one pair, accumulating gradients into `params`
    * (deterministic when dropout is 0) — used by gradient-check tests.
    */
  def accumulateGradients(a: EncodedPlan, b: EncodedPlan, label: Boolean): Double = {
    val s = backprop(a, b, label, drawMasks())
    gradGroups.foreach(_(s))
    s.loss
  }

  def predictProb(a: EncodedPlan, b: EncodedPlan): Double = NnOps.sigmoid(logit(a, b))

  /** `predictProb` of two plans given their summaries `embed(a)` and
    * `embed(b)`: the pair head alone.
    */
  def predictProbEmbedded(e1: Array[Double], e2: Array[Double]): Double =
    NnOps.sigmoid(headForward(e1, e2, None).logit)

  /** One pass over `data` in minibatches; returns mean loss. */
  def trainEpoch(data: IndexedSeq[((EncodedPlan, EncodedPlan), Boolean)],
                 batchSize: Int = 32): Double = {
    val idx = rng.shuffle(data.indices.toVector)
    var totalLoss = 0.0
    idx.grouped(batchSize).foreach { batch =>
      val masks = batch.map(_ => drawMasks())
      val steps = Par.tabulate(batch.size) { k =>
        val ((a, b), label) = data(batch(k))
        backprop(a, b, label, masks(k))
      }
      opt.zeroGrad()
      Par.tabulate(gradGroups.size)(j => steps.foreach(gradGroups(j)))
      steps.foreach(s => totalLoss += s.loss)
      opt.step(batch.size)
    }
    totalLoss / data.size
  }

  def fit(data: IndexedSeq[((EncodedPlan, EncodedPlan), Boolean)],
          epochs: Int, batchSize: Int = 32, verbose: Boolean = false): Unit = {
    for (e <- 0 until epochs) {
      val loss = trainEpoch(data, batchSize)
      if (verbose) Console.err.println(f"[EmfModel] epoch $e%2d loss $loss%.4f")
    }
  }
}

object EmfModel {
  /** Layer widths: two tree convolutions, then the pair head's two hidden layers. */
  private val Conv1Out = 64
  private val Conv2Out = 32
  private val Fc1Out   = 64
  private val Fc2Out   = 32
}

/** The EMF filter: schema-aware encoding front-end over [[EmfModel]]. The
  * model itself is db-agnostic (§4.2); this wrapper instance-encodes plans
  * under a per-schema [[EncoderConfig]] and converts pairs through the
  * §4.2.1 converter before prediction, so one trained model serves any
  * schema (Table 3/4 transfer setting).
  *
  * Batch inference ([[predictProbs]]) scores its pairs in parallel and runs
  * the tower about once per distinct converted plan. Its memo is keyed by the
  * converted [[EncodedPlan]]'s contents (node vectors and tree shape,
  * compared deeply): the tower is a pure function of that input, so the key
  * is exact, and it also catches identical plans and masks that leave a
  * plan's own dimensions in place. The memo lives for one call only, because
  * `fit` (e.g. SSFL fine-tuning) changes the towers between calls.
  */
final class Emf(seed: Long = 42, dropout: Double = 0.5) {
  val agn: EncoderConfig = EncoderConfig.agnostic()
  val model = new EmfModel(agn.nvSize, dropout = dropout, seed = seed)

  def encodePair(p: Plan, q: Plan, inst: EncoderConfig): (EncodedPlan, EncodedPlan) =
    DbAgnostic.encodePair(
      NodeVector.encodeInstance(p, inst),
      NodeVector.encodeInstance(q, inst),
      inst, agn)

  def encodeDataset(pairs: Seq[(Plan, Plan, Boolean)], inst: EncoderConfig)
      : IndexedSeq[((EncodedPlan, EncodedPlan), Boolean)] =
    pairs.map { case (p, q, l) => (encodePair(p, q, inst), l) }.toIndexedSeq

  def predictProb(p: Plan, q: Plan, inst: EncoderConfig): Double = {
    val (a, b) = encodePair(p, q, inst)
    model.predictProb(a, b)
  }

  /** EMF probabilities of `pairs` (indices into `instEnc`, the instance
    * encodings under `inst`), one per pair in order. Each pair goes through
    * the §4.2.1 converter; each distinct converted plan goes through the
    * tower about once per call; the pair head runs per pair. Every score
    * equals `model.predictProb` of the pair's `DbAgnostic.encodePair`.
    *
    * Pairs are scored in parallel, score `k` into slot `k`. The memo is read
    * with `get` and filled with `putIfAbsent`, so no lock is held while a
    * tower runs. Two threads may both compute one tower; both get the same
    * output, because the tower is a pure function of its input.
    */
  def predictProbs(instEnc: IndexedSeq[EncodedPlan], pairs: IterableOnce[(Int, Int)],
                   inst: EncoderConfig): Array[Double] = {
    val ps = IndexedSeq.from(pairs)
    val towers = new ConcurrentHashMap[TowerInput, Array[Double]]
    def tower(ep: EncodedPlan): Array[Double] = {
      val key = new TowerInput(ep)
      val hit = towers.get(key)
      if (hit != null) hit
      else {
        val out = model.embed(ep)
        val raced = towers.putIfAbsent(key, out)
        if (raced != null) raced else out
      }
    }
    Par.tabulate(ps.size) { k =>
      val (i, j) = ps(k)
      val (a, b) = DbAgnostic.encodePair(instEnc(i), instEnc(j), inst, agn)
      model.predictProbEmbedded(tower(a), tower(b))
    }
  }

  /** [[predictProbs]] of the one pair `(a, b)` of instance encodings. */
  def predictProbInstanceEncoded(a: EncodedPlan, b: EncodedPlan, inst: EncoderConfig): Double =
    predictProbs(Vector(a, b), Iterator((0, 1)), inst)(0)

  def predict(p: Plan, q: Plan, inst: EncoderConfig, threshold: Double = 0.5): Boolean =
    predictProb(p, q, inst) >= threshold

  /** Train (or incrementally fine-tune — optimizer state persists). */
  def fit(pairs: Seq[(Plan, Plan, Boolean)], inst: EncoderConfig,
          epochs: Int = 20, batchSize: Int = 32, verbose: Boolean = false): Unit =
    model.fit(encodeDataset(pairs, inst), epochs, batchSize, verbose)

  /** Pooled NV features for the flat RF/LR baselines of Table 3: the plain
    * concatenation `[maxpool(NV_α(a)), maxpool(NV_α(b))]`. As in the paper,
    * the flat models receive the same featurization with no engineered
    * pairing structure — learning the cross-side correspondence is exactly
    * what they fail at and the MLP succeeds at.
    */
  def pooledFeatures(p: Plan, q: Plan, inst: EncoderConfig): Array[Double] = {
    val (a, b) = encodePair(p, q, inst)
    val pa = MaxPool.forward(a.nodes)._1
    val pb = MaxPool.forward(b.nodes)._1
    val d = pa.length
    val out = new Array[Double](2 * d)
    var i = 0
    while (i < d) {
      out(i) = pa(i); out(d + i) = pb(i)
      i += 1
    }
    out
  }
}

/** A tower input keyed by its contents: node vectors and child links. */
private final class TowerInput(val ep: EncodedPlan) {
  import java.util.Arrays

  override val hashCode: Int = {
    var h = 31 * Arrays.hashCode(ep.left) + Arrays.hashCode(ep.right)
    ep.nodes.foreach(v => h = 31 * h + Arrays.hashCode(v))
    h
  }

  override def equals(other: Any): Boolean = other match {
    case o: TowerInput =>
      val a = ep; val b = o.ep
      a.numNodes == b.numNodes && Arrays.equals(a.left, b.left) && Arrays.equals(a.right, b.right) &&
        a.nodes.indices.forall(i => Arrays.equals(a.nodes(i), b.nodes(i)))
    case _ => false
  }
}
