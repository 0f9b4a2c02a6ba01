package repro.sparkreuse

import org.apache.spark.sql.catalyst.expressions.{Add => CAdd, Alias, And, Attribute, AttributeReference, Cast, EqualTo, ExprId, Expression, GreaterThan, GreaterThanOrEqual, IsNotNull, KnownFloatingPointNormalized, LessThan, LessThanOrEqual, Literal, Subtract => CSub}
import org.apache.spark.sql.catalyst.optimizer.NormalizeNaNAndZero
import org.apache.spark.sql.catalyst.plans.{Inner => CInner}
import org.apache.spark.sql.catalyst.plans.logical.{Filter => CFilter, Join => CJoin, LogicalPlan, Project => CProject, SubqueryAlias}
import org.apache.spark.sql.types.{ByteType, DataType, DoubleType, IntegerType, LongType, NumericType, ShortType}
import repro.core.ir.Ir
import repro.core.ir.Ir._
import scala.collection.mutable

/** Bridge from Catalyst `LogicalPlan`s to the portable IR, so GEqO can
  * consume real Spark SQL jobs (the repro target: Catalyst logical-plan
  * comparison with ML filters for cross-job computation reuse).
  *
  * Handles both analyzed plans (Project / Filter / inner Join over aliased
  * temp views) and optimizer-time plans, where Catalyst has already inlined
  * view bodies, pruned columns, inferred `IsNotNull` guards, and wrapped
  * float comparisons in normalization markers.
  */
object CatalystBridge {

  /** How to recognize base-table leaves. */
  trait LeafResolver {
    /** Some(tableName) if `p` is (the body of) a known base table. */
    def tableOf(p: LogicalPlan): Option[String]
  }

  /** Analyzed-plan leaves: `SubqueryAlias(table, …)` chains from temp views. */
  final class ViewNameResolver(knownTables: Set[String]) extends LeafResolver {
    def tableOf(p: LogicalPlan): Option[String] = p match {
      case SubqueryAlias(id, _) if knownTables.contains(id.name) => Some(id.name)
      case SubqueryAlias(_, child) => tableOf(child)
      case _ => None
    }
  }

  /** Optimizer-time leaves: temp-view bodies are inlined and column-pruned
    * by the time extra optimizations run, so a leaf is recognized by shape —
    * its output attribute names identify exactly one known table and the
    * subtree holds no relational operators of its own (no Filter/Join). The
    * untouched column *names* survive pruning even though the body plan
    * does not.
    */
  final class BodyResolver(tables: Map[String, Set[String]]) extends LeafResolver {
    def tableOf(p: LogicalPlan): Option[String] = {
      val names = p.output.map(_.name).toSet
      if (names.isEmpty) return None
      val hasRelOps = p.collectFirst {
        case f: CFilter => f
        case j: CJoin   => j
      }.isDefined
      if (hasRelOps) return None
      val matches = tables.collect { case (t, cols) if names.subsetOf(cols) => t }
      if (matches.size == 1) Some(matches.head) else None
    }
  }

  /** Result of a successful bridge: the IR plan plus, for each IR output
    * column position, the originating Catalyst attribute (used by the reuse
    * rule to re-alias replacement relations).
    */
  final case class Bridged(ir: Ir.Plan, outputAttrs: Seq[Attribute])

  private val Integral: Seq[DataType] = Seq(ByteType, ShortType, IntegerType, LongType)

  /** Whether casting from `from` to `to` keeps every value: the same type, an
    * integral type to one at least as wide, or `Byte`/`Short`/`Int` to
    * `Double`. Any other cast (a truncation to an integer, a rounding of a
    * `Long` beyond 2^53 to a `Double`) stays unbridged, since the IR has no
    * casts and would read the operand's own value.
    */
  private def keepsValues(from: DataType, to: DataType): Boolean = from == to || {
    val f = Integral.indexOf(from)
    f >= 0 && (Integral.indexOf(to) >= f || (to == DoubleType && from != LongType))
  }

  /** `None` when `plan` holds anything outside the IR's null-free SPJ class
    * that the bridge cannot map exactly: among others, a null-safe equality
    * `<=>` (it keeps rows where both sides are NULL) and a cast that
    * changes values.
    */
  def toIr(plan: LogicalPlan, resolver: LeafResolver): Option[Bridged] = {
    val attrOf = mutable.HashMap.empty[ExprId, ColRef]
    var nextAlias = 0

    def scalar(e: Expression): Option[Scalar] = e match {
      case a: AttributeReference            => attrOf.get(a.exprId).map(Col.apply)
      case Cast(c, to, _, _) if keepsValues(c.dataType, to) => scalar(c)
      case KnownFloatingPointNormalized(c)  => scalar(c)
      case NormalizeNaNAndZero(c)           => scalar(c)
      case Literal(v, _: NumericType)       => Some(Lit(v.toString.toDouble))
      case CAdd(a, b, _)                    => for (x <- scalar(a); y <- scalar(b)) yield Add(x, y)
      case CSub(a, b, _)                    => for (x <- scalar(a); y <- scalar(b)) yield Sub(x, y)
      case _                                => None
    }

    def pred(e: Expression): Option[Pred] = e match {
      case LessThan(a, b)           => for (x <- scalar(a); y <- scalar(b)) yield Pred(x, Lt, y)
      case LessThanOrEqual(a, b)    => for (x <- scalar(a); y <- scalar(b)) yield Pred(x, Le, y)
      case EqualTo(a, b)            => for (x <- scalar(a); y <- scalar(b)) yield Pred(x, Eq, y)
      case GreaterThanOrEqual(a, b) => for (x <- scalar(a); y <- scalar(b)) yield Pred(x, Ge, y)
      case GreaterThan(a, b)        => for (x <- scalar(a); y <- scalar(b)) yield Pred(x, Gt, y)
      case _                        => None
    }

    def conjuncts(e: Expression): Seq[Expression] = e match {
      case And(a, b) => conjuncts(a) ++ conjuncts(b)
      case other     => Seq(other)
    }

    /** Inferred null guards are inert here: the IR's class is null-free and
      * the guards are implied by the equi-join conditions they came from.
      */
    def relevant(es: Seq[Expression]): Seq[Expression] =
      es.filterNot(_.isInstanceOf[IsNotNull])

    def withFilters(base: Ir.Plan, conds: Seq[Expression]): Option[Ir.Plan] =
      relevant(conds).foldLeft(Option(base)) { (acc, c) =>
        for (ch <- acc; pr <- pred(c)) yield Ir.Filter(pr, ch)
      }

    def leaf(p: LogicalPlan, table: String): Ir.Plan = {
      val alias = s"b$nextAlias"; nextAlias += 1
      p.output.foreach(a => attrOf(a.exprId) = ColRef(alias, a.name))
      Scan(table, alias, p.output.map(_.name))
    }

    /** Project-free translation of the subtree under the root. */
    def go(p: LogicalPlan): Option[Ir.Plan] = resolver.tableOf(p) match {
      case Some(t) => Some(leaf(p, t))
      case None => p match {
        case SubqueryAlias(_, child) => go(child)
        case f: CFilter =>
          go(f.child).flatMap(ch => withFilters(ch, conjuncts(f.condition)))
        case j: CJoin if j.joinType == CInner =>
          // `FROM a, b WHERE …` analyzes to a condition-less inner join with
          // the predicates in a Filter above; use a tautological condition
          // then (it flattens to a trivially-true conjunct).
          for {
            l <- go(j.left)
            r <- go(j.right)
            cs = relevant(j.condition.map(conjuncts).getOrElse(Seq.empty))
            first <- cs.headOption.map(pred).getOrElse(Some(Pred(Lit(0), Le, Lit(0))))
            joined <- withFilters(Ir.Join(Ir.Inner, l, r, first), cs.drop(1))
          } yield joined
        case pr: CProject =>
          // Column-pruning / renaming projections mid-tree are transparent
          // for flattened SPJ semantics; record renames and pass through.
          go(pr.child).flatMap { ch =>
            val ok = pr.projectList.forall {
              case a: AttributeReference => attrOf.contains(a.exprId)
              case al @ Alias(e, _) =>
                scalar(e) match {
                  case Some(Col(r)) => attrOf(al.exprId) = r; true
                  case _            => false
                }
              case _ => false
            }
            if (ok) Some(ch) else None
          }
        case _ => None
      }
    }

    plan match {
      case pr: CProject =>
        go(pr.child).flatMap { ch =>
          val cols = pr.projectList.map {
            case a: AttributeReference => attrOf.get(a.exprId)
            case Alias(e, _)           => scalar(e).collect { case Col(r) => r }
            case _                     => None
          }
          if (cols.forall(_.isDefined))
            Some(Bridged(Ir.Project(cols.flatten, ch), pr.projectList.map(_.toAttribute)))
          else None
        }
      case _ => None // only Project-rooted subtrees have well-defined outputs here
    }
  }
}
