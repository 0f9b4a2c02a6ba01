package perfbench

import java.io.File
import java.lang.management.ManagementFactory

/** The repository benchmark. One JVM, one benchmark thread, no
  * SparkSession. Usage (from the repository root, after the build that
  * `perfbench/run.py` does):
  *
  * {{{
  *   perfbench.Main --workload table1|reuse --seed N --seconds S --trace 0|1
  * }}}
  *
  * With `--trace 0` it times the workload's end-to-end metrics; with
  * `--trace 1` it replays the same work call by call, records spans around
  * each call into a layer, cross-checks the replay's counts against the
  * program's own, and reports the per-layer metrics. The last line of
  * standard output is the JSON result; spans go to
  * `.bench_build/traces/<workload>-seed<N>.jsonl`.
  */
object Main {

  /** End-to-end metrics, reported by every workload with `--trace 0`. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "pairs_per_s" -> "pairs/s", "exact_pairs_per_s" -> "pairs/s",
    "tpr" -> "fraction", "live_mb" -> "MiB")

  /** Per-layer metrics, reported by every workload with `--trace 1`. A layer
    * a workload does not exercise reads 0 there.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "gen.workload_s" -> "s", "gen.truth_s" -> "s",
    "emf.train_s" -> "s", "emf.train_pairs_per_s" -> "pairs/s", "vmf.calibrate_s" -> "s",
    "encode.instance_s" -> "s", "encode.plans" -> "count",
    "sf.s" -> "s", "sf.pairs_out" -> "count", "sf.max_group" -> "count",
    "vmf.s" -> "s", "vmf.embed_s" -> "s", "vmf.search_s" -> "s",
    "vmf.pairs_out" -> "count", "vmf.hnsw_groups" -> "count",
    "hnsw.build_s" -> "s", "hnsw.radius_s" -> "s", "hnsw.radius_recall" -> "fraction",
    "hnsw.truncated_queries" -> "count",
    "emf.s" -> "s", "emf.convert_s" -> "s", "emf.tower_s" -> "s", "emf.head_s" -> "s",
    "emf.us_per_pair" -> "us", "emf.pairs_in" -> "count", "emf.pairs_out" -> "count",
    "emf.tower_reuse_frac" -> "fraction",
    "av.s" -> "s", "av.calls" -> "count", "av.us_per_call" -> "us", "av.yield" -> "fraction",
    "canon.flatten_us" -> "us", "dbm.sat_us" -> "us",
    "reuse.lookup_p50_ms" -> "ms", "reuse.lookup_p99_ms" -> "ms", "reuse.lookups" -> "count",
    "reuse.hit_frac" -> "fraction", "reuse.scanned_per_lookup" -> "count",
    "reuse.sf_s" -> "s", "reuse.av_s" -> "s", "reuse.av_calls" -> "count",
    "reuse.av_yield" -> "fraction", "reuse.cache_size" -> "count",
    "trace.pairs_per_s" -> "pairs/s", "trace.overhead_frac" -> "fraction",
    "trace.spans" -> "count")

  /** What one run measured. `failed` counts operations (a pass for batch
    * workloads, a lookup or exact pass for `reuse`) whose output failed the
    * reference check; `correct` is false if any did or a cross-check broke.
    */
  final case class Outcome(attempted: Long, failed: Long, metrics: Map[String, Double])

  final class CheckFailed(msg: String) extends RuntimeException(msg)
  def check(cond: Boolean, msg: => String): Unit = if (!cond) throw new CheckFailed(msg)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = opt("workload")
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val traced = opt("trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, not $t")
    }
    val trace = new Trace(traced)
    val outcome = workload match {
      case "table1" => Batch.run(seed, seconds, trace)
      case "reuse"  => Reuse.run(seed, seconds, trace)
      case w        => usage(s"unknown workload $w")
    }
    if (traced) trace.write(new File(s".bench_build/traces/$workload-seed$seed.jsonl"))

    val wanted = if (traced) PerLayer else EndToEnd
    val unknown = outcome.metrics.keySet -- wanted.map(_._1)
    check(unknown.isEmpty, s"unlisted metrics $unknown")
    val metrics = wanted.map { case (name, unit) =>
      val v = outcome.metrics.getOrElse(name,
        if (traced) 0.0 else throw new CheckFailed(s"end-to-end metric $name missing"))
      Console.err.println(f"  $name%-24s $v%14.6f $unit")
      s""""$name":{"value":${num(v)},"unit":"$unit"}"""
    }
    println(s"""{"correct":${outcome.failed == 0},"attempted":${outcome.attempted},""" +
      s""""failed":${outcome.failed},"metrics":{${metrics.mkString(",")}}}""")
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg\n" +
      "usage: perfbench.Main --workload table1|reuse --seed N --seconds S --trace 0|1")
    sys.exit(2)
  }

  private def num(v: Double): String = {
    check(!v.isNaN && !v.isInfinite, s"non-finite metric value $v")
    v.toString
  }

  // ---------------------------------------------------------------------
  // Shared measurement helpers.
  // ---------------------------------------------------------------------

  def timed[T](f: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val v = f
    (v, System.nanoTime() - t0)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank quantile. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(q * s.size).toInt - 1)))
  }

  /** Heap in use after a full collection, in MiB. */
  def liveMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    mem.gc()
    mem.gc()
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
