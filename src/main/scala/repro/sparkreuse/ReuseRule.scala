package repro.sparkreuse

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.{Alias, Attribute, NamedExpression}
import org.apache.spark.sql.catalyst.plans.logical.{LocalRelation, LogicalPlan, Project => CProject}
import org.apache.spark.sql.catalyst.rules.Rule
import repro.core.ir.Ir
import repro.core.sf.SchemaFilter
import repro.verifier.Verifier
import java.util.concurrent.atomic.LongAdder
import scala.collection.mutable

/** Computation-reuse cache: materialized subexpression results keyed by
  * their IR plan (the §7.7 result-caching case study, expressed on Spark).
  */
final class ReuseCache {
  final case class Entry(ir: Ir.Plan, relation: LogicalPlan)
  private val entries = mutable.ArrayBuffer.empty[Entry]

  def add(ir: Ir.Plan, relation: LogicalPlan): Unit = entries += Entry(ir, relation)
  def size: Int = entries.size

  /** First cached entry semantically equivalent to `candidate` (SF prune
    * then full verification, i.e. a short GEqO_PAIR chain — perfect
    * precision is mandatory before substituting results).
    */
  def find(candidate: Ir.Plan, verifier: Verifier): Option[Entry] =
    entries.find(e => SchemaFilter.admits(e.ir, candidate) &&
                      verifier.equivalent(e.ir, candidate))

  /** Materialize `df` (computed by plan `ir`) into a LocalRelation entry. */
  def materialize(ir: Ir.Plan, df: DataFrame): Unit = {
    val attrs = df.queryExecution.analyzed.output.map(_.asInstanceOf[Attribute])
    val rel = LocalRelation.fromExternalRows(attrs, df.collect().toIndexedSeq)
    add(ir, rel)
  }
}

/** Catalyst optimizer rule (injected via
  * `spark.experimental.extraOptimizations`) that replaces any subtree
  * semantically equivalent to a cached materialization with the cached
  * relation, re-aliased so downstream operators keep resolving — detecting
  * equivalent subexpressions *across* Spark SQL jobs for computation reuse.
  *
  * Subtrees are bridged to the IR with [[CatalystBridge]]; at optimizer time
  * temp-view bodies are already inlined, so leaves resolve through a
  * [[CatalystBridge.BodyResolver]] built from the known tables' plans.
  */
final class ReuseRule(cache: ReuseCache, resolver: CatalystBridge.LeafResolver,
                      verifier: Verifier) extends Rule[LogicalPlan] {

  private val hitCount = new LongAdder

  /** Count of successful substitutions (for tests/diagnostics). */
  def hits: Long = hitCount.sum()

  override def apply(plan: LogicalPlan): LogicalPlan = rewrite(plan)

  /** Top-down: replace the largest reusable subtree, else recurse. */
  private def rewrite(p: LogicalPlan): LogicalPlan = substitute(p) match {
    case Some(replacement) => replacement
    case None              => p.mapChildren(rewrite)
  }

  private def substitute(p: LogicalPlan): Option[LogicalPlan] = {
    if (cache.size == 0) return None
    p match {
      case _: LocalRelation => None // already a cached replacement
      case _ =>
        for {
          bridged <- CatalystBridge.toIr(p, resolver)
          entry   <- cache.find(bridged.ir, verifier)
        } yield {
          hitCount.increment()
          // Cached relation outputs are positionally aligned with the
          // subtree's outputs (the verifier proved the projection lists
          // correspond); re-alias to the original names and exprIds.
          val aliases: Seq[NamedExpression] =
            entry.relation.output.zip(bridged.outputAttrs).map { case (src, dst) =>
              Alias(src, dst.name)(exprId = dst.exprId)
            }
          CProject(aliases, entry.relation)
        }
    }
  }
}

object ReuseRule {
  /** Build a [[CatalystBridge.BodyResolver]] from the current session's
    * temp-view tables, keyed by each table's column-name shape.
    */
  def bodyResolver(spark: SparkSession, tables: Seq[String]): CatalystBridge.BodyResolver =
    new CatalystBridge.BodyResolver(
      tables.map(t => t -> spark.table(t).columns.toSet).toMap)

  /** Install `rule` into the session's extra optimizations (idempotent). */
  def install(spark: SparkSession, rule: ReuseRule): Unit = {
    val existing = spark.experimental.extraOptimizations
    if (!existing.contains(rule))
      spark.experimental.extraOptimizations = existing :+ rule
  }
}
