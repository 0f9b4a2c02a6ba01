package repro.core.sf

import repro.core.ir.Canon
import repro.core.ir.Ir.Plan

/** The schema filter (SF, §2.2.1): subexpressions that touch different
  * table multisets or return a different number of columns cannot be
  * equivalent. Groups a workload into SF-groups in O(n); only intra-group
  * pairs survive.
  */
object SchemaFilter {

  /** (sorted table multiset, output arity). */
  type Key = (Seq[String], Int)

  def key(p: Plan): Key = (Canon.flatten(p).tableMultiset, p.output.size)

  def admits(p: Plan, q: Plan): Boolean = key(p) == key(q)

  /** SF-groups as ascending index lists into `workload`, ordered by their
    * first member.
    */
  def groups(workload: IndexedSeq[Plan]): Vector[Vector[Int]] =
    workload.indices
      .groupBy(i => key(workload(i)))
      .values.map(_.toVector)
      .toVector
      .sortBy(_.head)

  /** A group's unordered pairs as global index tuples; (i < j) when `group`
    * is ascending, as every group from [[groups]] is.
    */
  def pairs(group: IndexedSeq[Int]): Iterator[(Int, Int)] =
    for { a <- group.indices.iterator; b <- (a + 1) until group.size } yield (group(a), group(b))
}
