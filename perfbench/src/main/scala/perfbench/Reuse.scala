package perfbench

import perfbench.Main.{Outcome, check, liveMb, median, quantile, timed}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import repro.core.ir.{Canon, Catalogs}
import repro.core.ir.Ir.Plan
import repro.core.sf.SchemaFilter
import repro.gen.{QueryGen, Rewrites, Workloads}
import repro.sparkreuse.ReuseCache
import repro.verifier.{DiffLogic, Verifier}
import scala.collection.mutable
import scala.util.Random

/** The online reuse gate: one closed-loop client streams sets of 2,000
  * TPC-H-lite queries through `ReuseCache.find`, adding each miss to a fresh
  * cache per stream. No ML runs here, so an EMF change must read no change on
  * this workload.
  */
object Reuse {

  private val Queries = 2000
  /** Query sets per run, seeds `seed + 1000·i`: lookup cost depends on the
    * drawn plans, so a run streams several sets to be steady across seeds.
    */
  private val QuerySets = 3
  private val SetStride = 1000L
  /** Set-up (query generation + truth) is cheap here, so it is repeated
    * and its median reported.
    */
  private val SetupRepeats = 3
  /** The warm-up stream looks up this many queries. */
  private val WarmupQueries = 400

  /** Stand-in for a materialized result; lookups never read it. */
  private val Placeholder = LocalRelation()

  private final case class Workload(queries: Vector[Plan], planted: Map[Int, Int],
                                    truth: Set[(Int, Int)]) {
    val partners: Map[Int, Set[Int]] =
      truth.toSeq.flatMap { case (i, j) => Seq(i -> j, j -> i) }.groupMap(_._1)(_._2).map {
        case (k, v) => k -> v.toSet
      }
    def numPairs: Long = queries.size.toLong * (queries.size - 1) / 2
  }

  /** 1,000 bases and one `Rewrites.variant` of each, shuffled, drawn as
    * `ResultCachingJob` draws its workload. Shuffling positions consumes the
    * generator exactly as shuffling the plans does, and keeps each query's
    * planted partner known.
    */
  private def generate(seed: Long): (Vector[Plan], Map[Int, Int]) = {
    val rng = new Random(seed)
    val bases = Vector.fill(Queries / 2)(
      QueryGen.assemble(QueryGen.baseSpec(Catalogs.tpchLite, rng), rng))
    val variants = bases.map(b => Rewrites.variant(b, rng, heavy = rng.nextBoolean()))
    val all = bases ++ variants
    val order = rng.shuffle(all.indices.toVector)
    val posOf = order.zipWithIndex.toMap
    val planted = (0 until Queries / 2).flatMap { k =>
      val (a, b) = (posOf(k), posOf(k + Queries / 2))
      Seq(a -> b, b -> a)
    }.toMap
    (order.map(all), planted)
  }

  /** Per-lookup results of one stream through a fresh cache. */
  private final case class Lookups(nanos: Array[Long], cacheSize: Array[Int], hits: Int,
                                   reusable: Int, failed: Int) {
    /** Cache entries the stream's lookups answered for. */
    def pairs: Long = cacheSize.map(_.toLong).sum
  }

  /** Look every query up in a fresh cache, adding misses. A lookup fails if
    * it hits an entry that is not a truth partner, or misses while its
    * planted partner is cached. `reusable` counts lookups that had a truth
    * partner cached. With `replay`, each lookup is followed by the traced
    * replay of its scan.
    */
  private def lookups(s: Workload, n: Int, replay: Option[Replay]): Lookups = {
    val cache = new ReuseCache
    val av = new Verifier(1)
    val cached = mutable.ArrayBuffer.empty[Int]
    val isCached = mutable.BitSet.empty
    val index = new java.util.IdentityHashMap[Plan, Int]()
    val nanos = new Array[Long](n)
    val sizes = new Array[Int](n)
    var hits, reusable, failed = 0
    for (k <- 0 until n) {
      val q = s.queries(k)
      sizes(k) = cache.size
      val calls0 = av.calls
      val (hit, ns) = timed(replay.fold(lookup(cache, q, av))(r =>
        r.trace.span("reuse.find")(lookup(cache, q, av))))
      nanos(k) = ns
      val partners = s.partners.getOrElse(k, Set.empty[Int])
      if (partners.exists(isCached)) reusable += 1
      hit match {
        case Some(e) =>
          hits += 1
          if (!partners.contains(index.get(e.ir))) failed += 1
        case None =>
          if (s.planted.get(k).exists(isCached)) failed += 1
          cached += k
          isCached += k
          index.put(q, k)
      }
      replay.foreach { r =>
        val found = r.scan(q, cached.view.take(sizes(k)).map(s.queries).toIndexedSeq)
        check(found == hit.map(e => cached.indexOf(index.get(e.ir))) && r.lastCalls == av.calls - calls0,
          s"traced scan of lookup $k found entry $found with ${r.lastCalls} AV calls; " +
            s"ReuseCache.find found ${hit.map(e => index.get(e.ir))} with ${av.calls - calls0}")
      }
    }
    Lookups(nanos, sizes, hits, reusable, failed)
  }

  private def lookup(cache: ReuseCache, q: Plan, av: Verifier): Option[cache.Entry] = {
    val hit = cache.find(q, av)
    if (hit.isEmpty) cache.add(q, Placeholder)
    hit
  }

  /** The scan `ReuseCache.find` makes — SF admission, then verification, in
    * insertion order up to the first equivalent entry — with the time of
    * each layer summed per lookup.
    */
  private final class Replay(val trace: Trace) {
    private val av = new Verifier(1)
    var lastCalls = 0L
    var scanned, avCalls, verified = 0L

    def scan(q: Plan, entries: IndexedSeq[Plan]): Option[Int] = trace.span("reuse.scan") {
      var sfNs, avNs = 0L
      val calls0 = av.calls
      var found = Option.empty[Int]
      var i = 0
      while (found.isEmpty && i < entries.size) {
        val t0 = System.nanoTime()
        val admitted = SchemaFilter.admits(entries(i), q)
        val t1 = System.nanoTime()
        sfNs += t1 - t0
        if (admitted) {
          if (av.equivalent(entries(i), q)) found = Some(i)
          avNs += System.nanoTime() - t1
        }
        i += 1
      }
      lastCalls = av.calls - calls0
      scanned += i
      avCalls += lastCalls
      if (found.nonEmpty) verified += 1
      trace.agg("reuse.sf", sfNs, i)
      trace.agg("reuse.av", avNs, lastCalls)
      found
    }
  }

  def run(seed: Long, seconds: Double, trace: Trace): Outcome = {
    // --- Set-up: queries + truth of every set, repeated --------------------
    val seeds = (0 until QuerySets).map(seed + SetStride * _)
    val setups = (0 until SetupRepeats).map { _ =>
      val (gen, genNs) = timed(seeds.map(s => trace.span("gen.workload")(generate(s))))
      val (truths, truthNs) = timed(gen.map { case (queries, _) =>
        trace.span("gen.truth")(Workloads.groundTruth(queries))
      })
      (gen.zip(truths).map { case ((queries, planted), truth) => Workload(queries, planted, truth) },
        genNs, truthNs)
    }
    val sets = setups.head._1
    val setupS = median(setups.map { case (_, g, t) => (g + t) / 1e9 })
    val plantedHeld = sets.map(w => w.planted.forall { case (a, b) => w.truth((a min b, a max b)) })
    if (plantedHeld.contains(false))
      Console.err.println("perfbench: a planted (base, variant) pair is missing from the truth")
    Console.err.println(f"perfbench: $QuerySets sets of $Queries queries, " +
      f"${sets.map(_.truth.size).sum} truths, set-up $setupS%.2f s")

    lookups(sets.head, WarmupQueries, None)
    val streams = Array.fill(QuerySets)(mutable.ArrayBuffer.empty[Lookups])
    val exact = Array.fill(QuerySets)(mutable.ArrayBuffer.empty[Double])
    var failed = 0L
    var k = 0
    val t0 = System.nanoTime()
    while (k < QuerySets || System.nanoTime() - t0 < seconds * 1e9) {
      val i = k % QuerySets
      val l = lookups(sets(i), Queries, None)
      streams(i) += l
      failed += (if (plantedHeld(i)) l.failed else Queries)
      val (t, ns) = timed(Workloads.groundTruth(sets(i).queries))
      exact(i) += ns / 1e9
      if (!plantedHeld(i) || t != sets(i).truth) failed += 1
      k += 1
    }
    val attempted = k.toLong * (Queries + 1)
    val last = streams.map(_.last)
    val streamS = streams.map(ls => median(ls.map(_.nanos.sum / 1e9).toSeq))
    Console.err.println(f"perfbench: $k streams, ${last.map(_.hits).sum} hits / ${QuerySets * Queries} " +
      "lookups; stream s " + streams.map(_.map(l => f"${l.nanos.sum / 1e9}%.2f").mkString(" ")).mkString(" | ") +
      "; exact s " + exact.map(_.map(e => f"$e%.3f").mkString(" ")).mkString(" | "))

    if (!trace.enabled) Outcome(attempted, failed, Map(
      "setup_s"           -> setupS,
      "pairs_per_s"       -> last.map(_.pairs).sum / streamS.sum,
      "exact_pairs_per_s" -> sets.map(_.numPairs).sum / exact.map(e => median(e.toSeq)).sum,
      "tpr"               -> last.map(_.hits).sum.toDouble / math.max(1, last.map(_.reusable).sum),
      "live_mb"           -> liveMb()))
    else {
      // One traced stream, over the first set.
      val r = new Replay(trace)
      val tl = trace.span("stream")(lookups(sets.head, Queries, Some(r)))
      val flats = trace.span("canon.flatten")(sets.head.queries.map(Canon.flatten))
      trace.span("dbm.sat")(flats.foreach(f => DiffLogic.satisfiable(f.conjuncts)))
      val ms = streams.toSeq.flatMap(_.flatMap(_.nanos.map(_ / 1e6)))
      val findS = trace.total("reuse.find") / 1e9
      Outcome(attempted + Queries, failed + tl.failed, Map(
        "gen.workload_s"           -> median(setups.map(_._2 / 1e9)) / QuerySets,
        "gen.truth_s"              -> median(setups.map(_._3 / 1e9)) / QuerySets,
        "canon.flatten_us"         -> trace.total("canon.flatten") / 1e3 / Queries,
        "dbm.sat_us"               -> trace.total("dbm.sat") / 1e3 / Queries,
        "reuse.lookup_p50_ms"      -> median(ms),
        "reuse.lookup_p99_ms"      -> quantile(ms, 0.99),
        "reuse.lookups"            -> ms.size,
        "reuse.hit_frac"           -> tl.hits.toDouble / Queries,
        "reuse.scanned_per_lookup" -> r.scanned.toDouble / Queries,
        "reuse.sf_s"               -> trace.total("reuse.sf") / 1e9,
        "reuse.av_s"               -> trace.total("reuse.av") / 1e9,
        "reuse.av_calls"           -> r.avCalls,
        "reuse.av_yield"           -> r.verified.toDouble / math.max(1L, r.avCalls),
        "reuse.cache_size"         -> (Queries - tl.hits),
        "trace.pairs_per_s"        -> tl.pairs / findS,
        "trace.overhead_frac"      -> (findS / streamS(0) - 1),
        "trace.spans"              -> trace.count))
    }
  }
}
