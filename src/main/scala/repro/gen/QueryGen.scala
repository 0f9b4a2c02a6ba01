package repro.gen

import repro.core.ir.Ir._
import repro.core.ir.{Column, Schema}
import scala.util.Random

/** Flattened query spec the fuzzer produces and the assembler renders:
  * base-table atoms, syntactic conjuncts (join conditions + filters), and
  * an ordered projection list.
  */
final case class Spec(atoms: Vector[Scan], preds: Vector[Pred], proj: Vector[ColRef]) {
  def cols: Vector[ColRef] =
    atoms.flatMap(a => a.columns.map(c => ColRef(a.alias, c)))
}

/** SPJ query fuzzer over a [[Schema]] — the AMOEBA substitute (§5). Base
  * subexpressions are random connected join walks with random selection
  * predicates (`col ⊲ const`, `col ⊲ col' + const`) and a random projection,
  * rendered to a random plan tree by [[QueryGen.assemble]].
  */
object QueryGen {

  private val MaxFilters = 3 // most random filters per spec

  /** Random connected table walk of length 1..maxTables. */
  def tableWalk(schema: Schema, rng: Random, maxTables: Int = 3): Vector[String] = {
    val n = 1 + rng.nextInt(maxTables)
    val first = schema.tables(rng.nextInt(schema.tables.size)).name
    var walk = Vector(first)
    while (walk.size < n) {
      val frontier = rng.shuffle(walk).iterator
        .map(t => (t, schema.edgesOf(t).filterNot(e => walk.contains(e._2))))
        .find(_._2.nonEmpty)
      frontier match {
        case Some((_, edges)) => walk :+= edges(rng.nextInt(edges.size))._2
        case None             => return walk // no unexplored neighbors
      }
    }
    walk
  }

  /** Spec over an explicit table sequence: equi-join preds linking each new
    * atom to a placed one, then random filters and a projection of `arity`
    * columns. Used both for base queries and for schema-compatible negative
    * partners (same tables, same arity — the SF-group constraint of §5).
    */
  def specOver(schema: Schema, tables: Vector[String], arity: Int, rng: Random): Spec = {
    val atoms = tables.zipWithIndex.map { case (t, i) =>
      Scan(t, s"a$i", schema.tableByName(t).columnNames)
    }
    val aliasOf = tables.zipWithIndex.map { case (t, i) => t -> s"a$i" }.toMap

    // Join conditions: connect atom i to a random earlier atom via a schema edge.
    val joinPreds = (1 until atoms.size).flatMap { i =>
      val t = tables(i)
      val candidates = schema.edgesOf(t)
        .filter { case (_, other, _) => tables.take(i).contains(other) }
      if (candidates.isEmpty) None
      else {
        val (cMine, tOther, cOther) = candidates(rng.nextInt(candidates.size))
        Some(Pred(Col(ColRef(aliasOf(tOther), cOther)), Eq,
                  Col(ColRef(s"a$i", cMine))))
      }
    }.toVector

    val allCols: Vector[(ColRef, Column)] = atoms.flatMap { a =>
      schema.tableByName(a.table).columns.map(c => (ColRef(a.alias, c.name), c))
    }

    def randConst(c: Column): Double = (c.lo + rng.nextInt(math.max(1, (c.hi - c.lo).toInt + 1))).floor

    val nFilters = rng.nextInt(MaxFilters + 1)
    val filters = Vector.fill(nFilters) {
      val (ref, col) = allCols(rng.nextInt(allCols.size))
      val op = IndexedSeq(Lt, Le, Ge, Gt)(rng.nextInt(4))
      if (rng.nextDouble() < 0.7 || allCols.size < 2) {
        Pred(Col(ref), op, Lit(randConst(col))) // col ⊲ const
      } else {
        // col ⊲ col' + const (difference predicate)
        val (ref2, _) = allCols(rng.nextInt(allCols.size))
        if (ref2 == ref) Pred(Col(ref), op, Lit(randConst(col)))
        else Pred(Col(ref), op, Add(Col(ref2), Lit((rng.nextInt(41) - 20).toDouble)))
      }
    }

    val proj = rng.shuffle(allCols.map(_._1)).take(math.max(1, arity))
    Spec(atoms, joinPreds ++ filters, proj)
  }

  def baseSpec(schema: Schema, rng: Random): Spec = {
    val walk = tableWalk(schema, rng)
    specOver(schema, walk, 1 + rng.nextInt(4), rng)
  }

  /** Render a spec to a random plan tree: random join order (commutativity +
    * associativity via random atom placement), random filter placement
    * (push-down vs pull-up), stacked single-predicate Filters, Project root.
    * Deterministic in `rng`; the same spec assembled with different seeds
    * yields syntactically different, semantically equivalent plans.
    */
  def assemble(spec: Spec, rng: Random, shuffleAtoms: Boolean = true): Plan = {
    var unused: Vector[Pred] = rng.shuffle(spec.preds)

    def availableIn(p: Plan): Set[ColRef] = p.output.toSet

    /** Attach (with probability) unused preds fully answerable by `p`. */
    def attachSome(p: Plan, always: Boolean): Plan = {
      var cur = p
      val avail = availableIn(p)
      val (ready, rest) = unused.partition(_.cols.subsetOf(avail))
      var stillUnused = rest
      ready.foreach { pr =>
        if (always || rng.nextDouble() < 0.5) cur = Filter(pr, cur)
        else stillUnused :+= pr
      }
      unused = stillUnused
      cur
    }

    // Greedy random join order: prefer atoms connected to the placed set by
    // some unused predicate, so join conditions exist where possible.
    var remaining =
      if (shuffleAtoms) rng.shuffle(spec.atoms.toList) else spec.atoms.toList
    var tree: Plan = attachSome(remaining.head, always = false)
    var placedCols = availableIn(tree)
    remaining = remaining.tail

    while (remaining.nonEmpty) {
      def connects(a: Scan): Boolean = unused.exists { p =>
        val cs = p.cols
        cs.exists(_.table == a.alias) && cs.exists(c => placedCols.contains(c))
      }
      val next = remaining.find(connects).getOrElse(remaining.head)
      remaining = remaining.filterNot(_ == next)

      val rightSide: Plan = attachSome(next, always = false)
      val bothCols = placedCols ++ availableIn(next)
      val condIdx = unused.indexWhere { p =>
        p.cols.subsetOf(bothCols) &&
          p.cols.exists(_.table == next.alias) && p.cols.exists(placedCols.contains)
      }
      val cond =
        if (condIdx >= 0) { val c = unused(condIdx); unused = unused.patch(condIdx, Nil, 1); c }
        else {
          // Cross join (no linking predicate, e.g. after a redundant-conjunct
          // removal): use a tautological condition; flattening keeps it as a
          // trivially-true conjunct.
          Pred(Lit(0), Le, Lit(0))
        }
      tree = Join(Inner, tree, rightSide, cond)
      placedCols = bothCols
      tree = attachSome(tree, always = false)
    }

    tree = attachSome(tree, always = true) // whatever is left goes on top
    Project(spec.proj, tree)
  }
}
