package repro.core.sf

import repro.core.ir.Canon
import repro.core.ir.Ir.Plan
import scala.util.Random

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

  /** `n` uniform random pairs `(i, j)`, `i < j`, of indices below `size` (none
    * when `size` < 2), duplicates kept; each draws `i`, then `j` until `j ≠ i`.
    */
  def randomPairs(size: Int, n: Int, rng: Random): Vector[(Int, Int)] =
    if (size < 2) Vector.empty
    else Vector.fill(n) {
      val i = rng.nextInt(size)
      var j = rng.nextInt(size)
      while (j == i) j = rng.nextInt(size)
      (math.min(i, j), math.max(i, j))
    }
}
