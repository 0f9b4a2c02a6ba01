package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced run. A span is one call (or one
  * batch of calls) from the benchmark into a layer: name, start, end, the
  * span that caused it, and the pass or lookup it belongs to. An aggregate
  * is a child whose time was summed over many small calls (per-pair or
  * per-entry) instead of being recorded as one span per call.
  *
  * Nothing is recorded unless `enabled`; the untraced run pays only for the
  * `enabled` check.
  */
final class Trace(val enabled: Boolean) {
  final case class Span(id: Int, parent: Int, op: Int, name: String, start: Long, end: Long) {
    def nanos: Long = end - start
  }
  final case class Agg(parent: Int, op: Int, name: String, nanos: Long, calls: Long)

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val aggs  = mutable.ArrayBuffer.empty[Agg]
  private var stack = List.empty[Int]
  /** Pass (batch) or lookup (reuse) that new spans belong to. */
  var op: Int = 0

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = spans.size
      val parent = stack.headOption.getOrElse(-1)
      spans += null
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, op, name, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  /** Record `nanos` summed over `calls` calls as a child of the open span. */
  def agg(name: String, nanos: Long, calls: Long): Unit =
    if (enabled) aggs += Agg(stack.headOption.getOrElse(-1), op, name, nanos, calls)

  def count: Int = spans.size + aggs.size

  /** Total nanos of every span or aggregate with this name. */
  def total(name: String): Long =
    spans.iterator.filter(_.name == name).map(_.nanos).sum +
      aggs.iterator.filter(_.name == name).map(_.nanos).sum

  /** Self nanos per name: a span's duration minus what its children cover. */
  def selfNanos: Map[String, Long] = {
    val covered = new Array[Long](spans.size)
    spans.foreach(s => if (s.parent >= 0) covered(s.parent) += s.nanos)
    aggs.foreach(a => if (a.parent >= 0) covered(a.parent) += a.nanos)
    val self = mutable.Map.empty[String, Long].withDefaultValue(0L)
    spans.foreach(s => self(s.name) += s.nanos - covered(s.id))
    aggs.foreach(a => self(a.name) += a.nanos)
    self.toMap
  }

  /** Write every span and aggregate as one JSON object per line, then a
    * summary line of self time per name.
    */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file)
    try {
      spans.foreach(s => out.println(
        s"""{"span":${s.id},"parent":${s.parent},"op":${s.op},"name":"${s.name}",""" +
          s""""start_ns":${s.start},"end_ns":${s.end}}"""))
      aggs.foreach(a => out.println(
        s"""{"agg":"${a.name}","parent":${a.parent},"op":${a.op},"nanos":${a.nanos},"calls":${a.calls}}"""))
      out.println(selfNanos.toSeq.sortBy(_._1)
        .map { case (n, ns) => s""""$n":${ns / 1e9}""" }.mkString("""{"self_s":{""", ",", "}}"))
    } finally out.close()
  }
}
