package repro.gen

import repro.core.ir.Ir.Plan
import repro.core.ir.Schema
import repro.core.sf.SchemaFilter
import repro.verifier.Verifier
import scala.util.Random

/** Labeled-dataset and evaluation-workload builders (§5, §7). */
object Workloads {

  /** Share of `labeledPairs` positives made by the heavy rewrite. */
  private val HeavyFrac = 0.7
  /** Share of `evalWorkload`'s planted pairs made by the light rewrite. */
  private val LightFrac = 0.4

  final case class LabeledPair(a: Plan, b: Plan, label: Boolean)

  /** Evaluation workload (§7.5 setting): `subexprs` with ground-truth
    * equivalent index pairs (i < j), planted classes plus any accidental
    * equivalences found by the verifier within SF-compatible groups.
    */
  final case class EvalSet(subexprs: Vector[Plan], truth: Set[(Int, Int)]) {
    def numPairs: Long = subexprs.size.toLong * (subexprs.size - 1) / 2
  }

  /** Balanced labeled pairs for EMF training/testing (§5): positives are
    * (base, variant) pairs from the rewrite rules; negatives are random
    * pairs of independent queries over the *same* table walk and projection
    * arity (schema-compatible, so the SF would not reject them), labeled by
    * the verifier to avoid false negatives.
    *
    * `HeavyFrac` of the positives use the heavy rewrite;
    * `maxTables`/`maxFilters` bound query complexity (used by the SSFL
    * degenerate-workload experiment, e.g. maxTables = 1 for "no joins").
    */
  def labeledPairs(schema: Schema, n: Int, seed: Long,
                   maxTables: Int = 3, maxFilters: Int = 3): Vector[LabeledPair] = {
    val rng = new Random(seed)
    val av  = new Verifier()
    val out = Vector.newBuilder[LabeledPair]
    var made = 0
    while (made < n) {
      val walk = QueryGen.tableWalk(schema, rng, maxTables)
      val arity = 1 + rng.nextInt(4)
      val spec = QueryGen.specOver(schema, walk, arity, rng, maxFilters)
      val base = QueryGen.assemble(spec, rng)
      if (made % 2 == 0) {
        val v = Rewrites.variant(base, rng, heavy = rng.nextDouble() < HeavyFrac)
        out += LabeledPair(base, v, label = true)
      } else {
        val other = QueryGen.assemble(QueryGen.specOver(schema, walk, arity, rng, maxFilters), rng)
        out += LabeledPair(base, other, label = av.equivalent(base, other))
      }
      made += 1
    }
    out.result()
  }

  /** §7.5-style workload: `nSubexprs` subexpressions whose pairwise space
    * has ~`nClasses` planted equivalent pairs. `LightFrac` of planted pairs
    * use the light rewrite (within optimizer/signature reach); the rest are
    * heavy. Singletons are drawn over a small pool of table walks so that
    * SF-groups stay populated (keeps SF's TNR in the paper's moderate
    * regime). Ground truth = verifier over all SF-compatible pairs.
    */
  def evalWorkload(schema: Schema, nSubexprs: Int, nClasses: Int, seed: Long): EvalSet = {
    val rng = new Random(seed)
    val subs = Vector.newBuilder[Plan]

    // Small pool of (walk, arity) shapes shared by most singletons.
    val pool = Vector.fill(4)((QueryGen.tableWalk(schema, rng), 1 + rng.nextInt(3)))

    for (_ <- 0 until nClasses) {
      val (walk, arity) = pool(rng.nextInt(pool.size))
      val base = QueryGen.assemble(QueryGen.specOver(schema, walk, arity, rng), rng)
      val v = Rewrites.variant(base, rng, heavy = rng.nextDouble() >= LightFrac)
      subs += base += v
    }
    for (_ <- 0 until (nSubexprs - 2 * nClasses)) {
      val (walk, arity) =
        if (rng.nextDouble() < 0.8) pool(rng.nextInt(pool.size))
        else (QueryGen.tableWalk(schema, rng), 1 + rng.nextInt(3))
      subs += QueryGen.assemble(QueryGen.specOver(schema, walk, arity, rng), rng)
    }

    val all = rng.shuffle(subs.result())
    EvalSet(all, groundTruth(all))
  }

  /** Exact equivalence set via the (fast) verifier, restricted to pairs the
    * SF cannot reject — pairs in different SF-groups are never equivalent
    * because they touch different tables or differ in arity.
    */
  def groundTruth(subexprs: Vector[Plan]): Set[(Int, Int)] = {
    val av = new Verifier()
    SchemaFilter.groups(subexprs).iterator.flatMap(SchemaFilter.pairs)
      .filter { case (i, j) => av.equivalent(subexprs(i), subexprs(j)) }.toSet
  }
}
