package perfbench

import perfbench.Main.{Outcome, check, liveMb, median, timed}
import repro.ann.Hnsw
import repro.bench.Experiments
import repro.core.emf.Emf
import repro.core.encode.{DbAgnostic, EncodedPlan, NodeVector}
import repro.core.geqo.GEqO
import repro.core.ir.{Canon, Catalogs}
import repro.core.ir.Ir.Plan
import repro.core.sf.SchemaFilter
import repro.core.vmf.Vmf
import repro.gen.{QueryGen, Rewrites, Workloads}
import repro.verifier.{DiffLogic, Verifier}
import scala.collection.mutable
import scala.util.Random

/** The `table1` workload: repeated full passes of the SF → VMF → EMF → AV
  * cascade (`GEqO.equivalenceSet`) and of the exact no-ML path (SF + AV on
  * every intra-group pair, `Workloads.groundTruth`) over workloads of the
  * paper's Table-1 shape (§7.5): `evalWorkload(tpcdsLite, 317, 50, s)`,
  * 50,086 pairs each.
  *
  * One draw's cost is set by the few table walks its generator picks, so a
  * pass takes 0.6–1.3 s depending on the seed. A run therefore measures
  * `Draws` draws, seeds `seed + 1000·i`, and reports their totals; draw 0
  * is the `--seed` workload itself, so seed 7 includes Table1Bench's.
  */
object Batch {

  private val Draws      = 32
  private val DrawStride = 1000L
  private val Subexprs   = 317
  private val Classes    = 50

  // The values Experiments.table1 and the program's defaults use.
  private val EmfThreshold    = 0.3
  private val HnswEf          = 48   // Vmf's beam width
  private val BruteForceBelow = 64   // Vmf.candidatePairs' exact-scan limit
  private val LightFrac       = 0.4  // Workloads.evalWorkload's light-rewrite share
  private val TrainPairs      = 4000 // Experiments.trainEmf's defaults
  private val TrainEpochs     = 16

  private def inst = Experiments.tpcdsCfg

  /** One generated workload and whether its planted pairs are all in its truth. */
  private final case class Draw(es: Workloads.EvalSet, truthHolds: Boolean) {
    def subs: Vector[Plan] = es.subexprs
    /** A cascade result is correct when it reports only truths and the truth
      * it is checked against holds every planted pair.
      */
    def correct(found: Set[(Int, Int)]): Boolean = truthHolds && found.subsetOf(es.truth)
  }

  def run(seed: Long, seconds: Double, trace: Trace): Outcome = {
    // --- Set-up: workloads + truth, EMF training, VMF calibration ---------
    val seeds = (0 until Draws).map(seed + DrawStride * _)
    val (sets, genNs) = timed(seeds.map(s =>
      trace.span("gen.workload")(Workloads.evalWorkload(Catalogs.tpcdsLite, Subexprs, Classes, s))))
    val (emf, trainNs) = timed(trace.span("emf.train")(Experiments.trainEmf(verbose = false)))
    val (vmf, calNs)   = timed(trace.span("vmf.calibrate")(Experiments.calibrateVmf(emf)))
    val setupS = (genNs + trainNs + calNs) / 1e9
    val draws = sets.zip(seeds).map { case (es, s) =>
      Draw(es, planted(es, s).forall { case (bases, variants) =>
        bases.exists(i => variants.exists(j => i != j && es.truth((i min j, i max j))))
      })
    }
    if (!draws.forall(_.truthHolds))
      Console.err.println("perfbench: a planted (base, variant) pair is missing from the truth")
    Console.err.println(f"perfbench: $Draws workloads, ${draws.map(_.es.truth.size).sum} truths, " +
      f"set-up $setupS%.2f s")

    val av   = new Verifier(1)
    val geqo = new GEqO(emf, vmf, av, inst, EmfThreshold)
    geqo.equivalenceSet(draws.head.subs)
    if (trace.enabled) traced(draws, geqo, av, emf, vmf, seconds, trace, genNs, trainNs, calNs)
    else {
      val cascade = Array.fill(Draws)(mutable.ArrayBuffer.empty[Double])
      val exact   = Array.fill(Draws)(mutable.ArrayBuffer.empty[Double])
      val found   = new Array[Int](Draws)
      var failed  = 0L
      var k = 0
      val t0 = System.nanoTime()
      while (k < Draws || System.nanoTime() - t0 < seconds * 1e9) {
        val d = k % Draws
        val draw = draws(d)
        val (r, ns) = timed(geqo.equivalenceSet(draw.subs))
        cascade(d) += ns / 1e9
        if (!draw.correct(r.equivalences)) failed += 1
        found(d) = (r.equivalences & draw.es.truth).size
        val (t, ens) = timed(Workloads.groundTruth(draw.subs))
        exact(d) += ens / 1e9
        if (!draw.truthHolds || t != draw.es.truth) failed += 1
        k += 1
      }
      val pairs = draws.map(_.es.numPairs).sum.toDouble
      val cascadeS = cascade.map(c => median(c.toSeq)).sum
      val exactS = exact.map(e => median(e.toSeq)).sum
      Console.err.println(f"perfbench: $k passes of each path; summed per-draw medians " +
        f"$cascadeS%.2f s cascade, $exactS%.2f s exact")
      Outcome(2L * k, failed, Map(
        "setup_s"           -> setupS,
        "pairs_per_s"       -> pairs / cascadeS,
        "exact_pairs_per_s" -> pairs / exactS,
        "tpr"               -> found.sum.toDouble / draws.map(_.es.truth.size).sum,
        "live_mb"           -> liveMb()))
    }
  }

  /** The (base, variant) pairs `Workloads.evalWorkload` plants, found by
    * replaying its generator calls with the same seed. They are a reference
    * that does not come from the verifier: each must be in the truth. Each
    * entry holds every index where the base and the variant occur.
    */
  private def planted(es: Workloads.EvalSet, seed: Long): Vector[(Seq[Int], Seq[Int])] = {
    val schema = Catalogs.tpcdsLite
    val rng = new Random(seed)
    val pool = Vector.fill(4)((QueryGen.tableWalk(schema, rng), 1 + rng.nextInt(3)))
    val at = es.subexprs.zipWithIndex.groupMap(_._1)(_._2)
    Vector.fill(Classes) {
      val (walk, arity) = pool(rng.nextInt(pool.size))
      val base = QueryGen.assemble(QueryGen.specOver(schema, walk, arity, rng), rng)
      val v = Rewrites.variant(base, rng, heavy = rng.nextDouble() >= LightFrac)
      check(at.contains(base) && at.contains(v),
        "planted pair not found in the workload: the generator no longer matches its replay")
      (at(base), at(v))
    }
  }

  /** What one replayed cascade pass produced. */
  private final case class Replay(instEnc: IndexedSeq[EncodedPlan], groups: Vector[Vector[Int]],
                                  sfPairs: Long, vmfPairs: Vector[(Int, Int)], emfPairs: Long,
                                  verified: Set[(Int, Int)], avCalls: Long)

  /** The cascade of `GEqO.equivalenceSet`, one layer call at a time, with a
    * span around each.
    */
  private def replay(subs: Vector[Plan], emf: Emf, vmf: Vmf, trace: Trace): Replay = trace.span("pass") {
    val instEnc = trace.span("encode.instance")(subs.map(NodeVector.encodeInstance(_, inst)))
    def ordered(i: Int, j: Int) = if (i < j) (i, j) else (j, i)
    val (groups, sfPairs) = trace.span("sf") {
      val gs = SchemaFilter.groups(subs)
      (gs, gs.flatMap(g => for (a <- g.indices; b <- (a + 1) until g.size) yield ordered(g(a), g(b))))
    }
    val vmfPairs = trace.span("vmf")(groups.flatMap { g =>
      vmf.candidatePairs(g.map(instEnc), inst).map { case (a, b) => ordered(g(a), g(b)) }
    })
    val emfPairs = trace.span("emf")(vmfPairs.filter { case (i, j) =>
      emf.predictProbInstanceEncoded(instEnc(i), instEnc(j), inst) >= EmfThreshold
    })
    val av = new Verifier(1)
    val verified = trace.span("av")(emfPairs.filter { case (i, j) => av.equivalent(subs(i), subs(j)) }.toSet)
    Replay(instEnc, groups, sfPairs.size, vmfPairs, emfPairs.size, verified, av.calls)
  }

  /** Counts the finer splits produced for one draw. */
  private final case class Split(hnswGroups: Int, inRadius: Long, returned: Long, truncated: Long,
                                 towerInputs: Long, distinctTowerInputs: Long)

  /** Finer splits: the same public calls the cascade makes inside one layer
    * call, timed on the same inputs.
    */
  private def split(subs: Vector[Plan], rp: Replay, emf: Emf, vmf: Vmf, trace: Trace): Split =
    trace.span("split") {
      val embs = trace.span("vmf.embed")(rp.groups.map(g => vmf.embedGroup(g.map(rp.instEnc), inst)))

      var hnswGroups = 0
      var inRadius, returned, truncated = 0L
      embs.filter(_.size > BruteForceBelow).foreach { e =>
        hnswGroups += 1
        val index = trace.span("hnsw.build") {
          val h = new Hnsw(e.head.length, seed = 7)
          e.foreach(h.add)
          h
        }
        val hits = trace.span("hnsw.radius")(e.map(q => index.radius(q, vmf.tau, HnswEf).size))
        hits.foreach(n => if (n == HnswEf) truncated += 1)
        returned += hits.sum
        inRadius += e.iterator.map(q => e.count(index.dist(q, _) <= vmf.tau)).sum
      }

      val towerInputs = mutable.HashSet.empty[Long]
      trace.span("emf.split") {
        var convertNs, towerNs, predictNs = 0L
        rp.vmfPairs.foreach { case (i, j) =>
          val t0 = System.nanoTime()
          val (a, b) = DbAgnostic.encodePair(rp.instEnc(i), rp.instEnc(j), inst, emf.agn)
          val t1 = System.nanoTime()
          emf.model.embed(a)
          emf.model.embed(b)
          val t2 = System.nanoTime()
          emf.model.predictProb(a, b)
          val t3 = System.nanoTime()
          convertNs += t1 - t0; towerNs += t2 - t1; predictNs += t3 - t2
          towerInputs += contentHash(a)
          towerInputs += contentHash(b)
        }
        val n = rp.vmfPairs.size.toLong
        trace.agg("emf.convert", convertNs, n)
        trace.agg("emf.tower", towerNs, 2 * n)
        trace.agg("emf.predict", predictNs, n)
      }

      val flats = trace.span("canon.flatten")(subs.map(Canon.flatten))
      trace.span("dbm.sat")(flats.foreach(f => DiffLogic.satisfiable(f.conjuncts)))
      Split(hnswGroups, inRadius, returned, truncated, 2L * rp.vmfPairs.size, towerInputs.size)
    }

  /** 64-bit hash of an encoded plan's contents (tree shape and node vectors). */
  private def contentHash(ep: EncodedPlan): Long = {
    var h = 1125899906842597L
    def mix(x: Long): Unit = h = (h ^ x) * 0x100000001b3L + 31
    ep.nodes.foreach(v => v.foreach(d => mix(java.lang.Double.doubleToLongBits(d))))
    ep.left.foreach(x => mix(x.toLong))
    ep.right.foreach(x => mix(x.toLong))
    h
  }

  /** Traced run: for each draw in turn until the time is up, an untraced
    * `equivalenceSet` pass, then a traced replay with its finer splits. It
    * aborts unless the replay's per-stage counts equal the pass's `Stats`
    * and verifier calls exactly. Per-layer metrics are per draw.
    */
  private def traced(draws: IndexedSeq[Draw], geqo: GEqO, av: Verifier, emf: Emf, vmf: Vmf,
                     seconds: Double, trace: Trace,
                     genNs: Long, trainNs: Long, calNs: Long): Outcome = {
    val untraced = mutable.ArrayBuffer.empty[Double]
    val tracedPass = mutable.ArrayBuffer.empty[Double]
    val replays = mutable.ArrayBuffer.empty[(Replay, Split)]
    var failed = 0L
    val t0 = System.nanoTime()
    while (replays.isEmpty || (replays.size < draws.size && System.nanoTime() - t0 < seconds * 1e9)) {
      val draw = draws(replays.size)
      trace.op = replays.size
      trace.span("gen.truth")(Workloads.groundTruth(draw.subs))
      val calls0 = av.calls
      val (r, ns) = timed(geqo.equivalenceSet(draw.subs))
      untraced += ns / 1e9
      if (!draw.correct(r.equivalences)) failed += 1
      val s = r.stats
      val (rp, tns) = timed(replay(draw.subs, emf, vmf, trace))
      tracedPass += tns / 1e9
      val got  = (rp.sfPairs, rp.vmfPairs.size.toLong, rp.emfPairs, rp.verified.size.toLong, rp.avCalls)
      val want = (s.afterSf, s.afterVmf, s.afterEmf, s.verified, av.calls - calls0)
      check(got == want && rp.avCalls == s.afterEmf && rp.verified == r.equivalences,
        s"traced replay (afterSf, afterVmf, afterEmf, verified, AV calls) = $got " +
          s"differs from GEqO.Stats/Verifier.calls $want")
      replays += ((rp, split(draw.subs, rp, emf, vmf, trace)))
    }
    val n = replays.size.toDouble
    def sec(name: String) = trace.total(name) / 1e9 / n
    def per(f: ((Replay, Split)) => Long) = replays.map(f).sum / n
    val plans = per(_._1.instEnc.size)
    val vmfIn = per(_._1.vmfPairs.size)
    val avCalls = per(_._1.avCalls)
    val inRadius = per(_._2.inRadius)
    val trainS = trainNs / 1e9
    val pairs = replays.map { case (rp, _) => rp.instEnc.size.toLong * (rp.instEnc.size - 1) / 2 }.sum
    Outcome(untraced.size, failed, Map(
      "gen.workload_s"         -> (genNs / 1e9 / draws.size - sec("gen.truth")),
      "gen.truth_s"            -> sec("gen.truth"),
      "emf.train_s"            -> trainS,
      "emf.train_pairs_per_s"  -> TrainPairs.toDouble * TrainEpochs / trainS,
      "vmf.calibrate_s"        -> calNs / 1e9,
      "encode.instance_s"      -> sec("encode.instance"),
      "encode.plans"           -> plans,
      "sf.s"                   -> sec("sf"),
      "sf.pairs_out"           -> per(_._1.sfPairs),
      "sf.max_group"           -> replays.map(_._1.groups.map(_.size).max).max,
      "vmf.s"                  -> sec("vmf"),
      "vmf.embed_s"            -> sec("vmf.embed"),
      "vmf.search_s"           -> (sec("vmf") - sec("vmf.embed")),
      "vmf.pairs_out"          -> vmfIn,
      "vmf.hnsw_groups"        -> per(_._2.hnswGroups),
      "hnsw.build_s"           -> sec("hnsw.build"),
      "hnsw.radius_s"          -> sec("hnsw.radius"),
      "hnsw.radius_recall"     -> (if (inRadius == 0) 1.0 else per(_._2.returned) / inRadius),
      "hnsw.truncated_queries" -> per(_._2.truncated),
      "emf.s"                  -> sec("emf"),
      "emf.convert_s"          -> sec("emf.convert"),
      "emf.tower_s"            -> sec("emf.tower"),
      "emf.head_s"             -> (sec("emf.predict") - sec("emf.tower")),
      "emf.us_per_pair"        -> sec("emf") * 1e6 / math.max(1.0, vmfIn),
      "emf.pairs_in"           -> vmfIn,
      "emf.pairs_out"          -> per(_._1.emfPairs),
      "emf.tower_reuse_frac"   -> (1.0 - per(_._2.distinctTowerInputs) / math.max(1.0, per(_._2.towerInputs))),
      "av.s"                   -> sec("av"),
      "av.calls"               -> avCalls,
      "av.us_per_call"         -> sec("av") * 1e6 / math.max(1.0, avCalls),
      "av.yield"               -> per(_._1.verified.size) / math.max(1.0, avCalls),
      "canon.flatten_us"       -> sec("canon.flatten") * 1e6 / plans,
      "dbm.sat_us"             -> sec("dbm.sat") * 1e6 / plans,
      "trace.pairs_per_s"      -> pairs / tracedPass.sum,
      "trace.overhead_frac"    -> (tracedPass.sum / untraced.sum - 1),
      "trace.spans"            -> trace.count))
  }
}
