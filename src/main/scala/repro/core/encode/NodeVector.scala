package repro.core.encode

import repro.core.ir.Canon
import repro.core.ir.Ir._
import repro.core.ir.Schema

/** Instance-based node-vector (NV) featurization of logical plans (§4.1).
  *
  * Each plan node becomes a fixed-size vector of concatenated segments
  * `NV = V_table ⊕ V_join ⊕ V_select ⊕ V_proj`:
  *
  *  - V_table: one-hot of the scanned base table;
  *  - V_join: onehot(c_left) ⊕ onehot(op) ⊕ onehot(c_right) ⊕ onehot(joinType)
  *    — used for any two-column predicate (join conditions and θ-filters);
  *  - V_select: onehot(col) ⊕ onehot(op) ⊕ norm(const) ⊕ null(const) — used
  *    for single-column predicates;
  *  - V_proj: multi-hot of projected columns (our extension: the paper's NV
  *    has no projection segment, but output lists decide equivalence —
  *    DESIGN.md "Substitutions").
  *
  * Segments not applicable to a node are zero. Predicates are
  * constant-folded before encoding (§4.1): both sides collapse to linear
  * form and the net constant lands in the `norm(v)`/`null(v)` slots.
  */
final case class EncoderConfig(tables: IndexedSeq[String], columns: IndexedSeq[String]) {
  val nOps: Int   = AllOps.size
  val nJoins: Int = AllJoinTypes.size
  val nT: Int = tables.size
  val nC: Int = columns.size

  val tableIdx: Map[String, Int]  = tables.zipWithIndex.toMap
  val columnIdx: Map[String, Int] = columns.zipWithIndex.toMap
  val opIdx: Map[CmpOp, Int]      = AllOps.zipWithIndex.toMap
  val joinIdx: Map[JoinType, Int] = AllJoinTypes.zipWithIndex.toMap
  /** Index into `tables` of each column's table (its name up to the first
    * '.'), or −1 when `tables` does not hold it.
    */
  val columnTable: Array[Int] = columns.map { c =>
    val dot = c.indexOf('.')
    if (dot < 0) -1 else tableIdx.getOrElse(c.substring(0, dot), -1)
  }.toArray

  // Segment offsets within the NV.
  val offTable: Int  = 0
  val offJoinCl: Int = offTable + nT
  val offJoinOp: Int = offJoinCl + nC
  val offJoinCr: Int = offJoinOp + nOps
  val offJoinJt: Int = offJoinCr + nC
  val offSelCol: Int = offJoinJt + nJoins
  val offSelOp: Int  = offSelCol + nC
  val offSelNorm: Int = offSelOp + nOps
  val offSelNull: Int = offSelNorm + 1
  val offProj: Int   = offSelNull + 1
  /** |NV| = |T| + 3·|C| + 2·|O| + |J| + 2 + |C| (projection extension). */
  val nvSize: Int = offProj + nC
}

object EncoderConfig {
  /** Instance-based config covering a workload schema (T_W, C_W of §4.1),
    * sorted alphanumerically so the db-agnostic converter's mask elimination
    * preserves the symbolization order (§4.2.1).
    */
  def forSchema(schema: Schema): EncoderConfig = EncoderConfig(
    schema.tables.map(_.name).sorted.toIndexedSeq,
    schema.tables.flatMap(t => t.columnNames.map(c => s"${t.name}.$c")).sorted.toIndexedSeq,
  )

  /** DB-agnostic config over symbolic tables t1..t3 and columns ti.c1..ti.c5
    * (T'_W, C'_W of §4.2). Symbol names sort in index order by construction.
    */
  val agnostic: EncoderConfig = EncoderConfig(
    (1 to 3).map(i => s"t$i"),
    (1 to 3).flatMap(i => (1 to 5).map(j => s"t$i.c$j")),
  )
}

/** A plan as a matrix of node vectors plus tree structure, in BFS order
  * (§3.2): `nodes(i)` is the NV of the i-th visited node; `left`/`right`
  * hold child indices (−1 when absent).
  */
final case class EncodedPlan(nodes: Array[Array[Double]], left: Array[Int], right: Array[Int]) {
  def numNodes: Int = nodes.length
}

object NodeVector {

  /** Bounded monotone normalization of predicate constants ("norm(x)" of
    * §4.1) — workload-independent by design so encodings transfer.
    */
  def normConst(v: Double): Double = v / (math.abs(v) + 50.0)

  /** Folded predicate features: positive-coefficient column first. */
  private[encode] final case class PredFeat(cl: Option[ColRef], op: CmpOp,
                                            cr: Option[ColRef], const: Option[Double])

  private[encode] def predFeat(p: Pred): PredFeat = {
    val diff = Canon.lin(p.left) - Canon.lin(p.right)
    val cols = diff.coefs.toList.sortBy { case (c, v) => (-v, c.table, c.column) }
    val const = if (diff.const == 0.0 && cols.nonEmpty) None else Some(diff.const)
    cols match {
      case Nil                    => PredFeat(None, p.op, None, const)
      case (c, _) :: Nil          => PredFeat(Some(c), p.op, None, const)
      case (c1, _) :: (c2, _) :: _ => PredFeat(Some(c1), p.op, Some(c2), const)
    }
  }

  /** Encode `plan` under `config`, mapping table/column references through
    * `tableKey` / `colKey` (identity for instance encoding; symbol maps for
    * the db-agnostic direct path). Unknown keys are dropped (clamping).
    */
  def encode(plan: Plan, config: EncoderConfig,
             tableKey: String => String, colKey: ColRef => String): EncodedPlan = {
    val aliasToTable: Map[String, String] = plan.atoms.map(a => a.alias -> a.table).toMap

    def setTable(v: Array[Double], baseTable: String): Unit =
      config.tableIdx.get(tableKey(baseTable)).foreach(i => v(config.offTable + i) = 1.0)
    def setCol(v: Array[Double], off: Int, ref: ColRef): Unit =
      config.columnIdx.get(colKey(ref)).foreach(i => v(off + i) += 1.0)
    def setConst(v: Array[Double], c: Option[Double]): Unit = c match {
      case Some(x) => v(config.offSelNorm) = normConst(x); v(config.offSelNull) = 0.0
      case None    => v(config.offSelNull) = 1.0
    }

    def encodeNode(p: Plan): Array[Double] = {
      val v = new Array[Double](config.nvSize)
      p match {
        case Scan(t, _, _) => setTable(v, t)
        case Filter(pred, _) =>
          val f = predFeat(pred)
          (f.cl, f.cr) match {
            case (Some(c1), Some(c2)) => // two-column θ-predicate: join slots
              setCol(v, config.offJoinCl, c1)
              v(config.offJoinOp + config.opIdx(f.op)) = 1.0
              setCol(v, config.offJoinCr, c2)
              setConst(v, f.const)
            case (c1, _) =>
              c1.foreach(setCol(v, config.offSelCol, _))
              v(config.offSelOp + config.opIdx(f.op)) = 1.0
              setConst(v, f.const)
          }
        case Join(jt, _, _, cond) =>
          val f = predFeat(cond)
          f.cl.foreach(setCol(v, config.offJoinCl, _))
          v(config.offJoinOp + config.opIdx(f.op)) = 1.0
          f.cr.foreach(setCol(v, config.offJoinCr, _))
          v(config.offJoinJt + config.joinIdx(jt)) = 1.0
          setConst(v, f.const)
        case Project(cols, _) =>
          cols.foreach(setCol(v, config.offProj, _))
      }
      v
    }

    // BFS traversal (§3.2). Children are enqueued in visit order, so the
    // children of the i-th visited node occupy the next unclaimed BFS slots —
    // a running cursor reconstructs the child links exactly.
    val order = scala.collection.mutable.ArrayBuffer.empty[Plan]
    val queue = scala.collection.mutable.Queue[Plan](plan)
    while (queue.nonEmpty) { val p = queue.dequeue(); order += p; p.children.foreach(queue.enqueue) }
    val left  = Array.fill(order.size)(-1)
    val right = Array.fill(order.size)(-1)
    var cursor = 1
    order.zipWithIndex.foreach { case (p, i) =>
      val cs = p.children
      if (cs.nonEmpty) { left(i) = cursor; cursor += 1 }
      if (cs.size > 1) { right(i) = cursor; cursor += 1 }
    }
    val nodes = order.map { p => encodeNode(withTables(p, aliasToTable)) }.toArray
    EncodedPlan(nodes, left, right)
  }

  /** Resolve alias-qualified references to base-table-qualified ones so
    * `colKey`/`tableKey` see base table names.
    */
  private def withTables(p: Plan, aliasToTable: Map[String, String]): Plan = {
    def mapRef(r: ColRef): ColRef = ColRef(aliasToTable.getOrElse(r.table, r.table), r.column)
    def mapScalar(s: Scalar): Scalar = s match {
      case Col(r)    => Col(mapRef(r))
      case l: Lit    => l
      case Add(a, b) => Add(mapScalar(a), mapScalar(b))
      case Sub(a, b) => Sub(mapScalar(a), mapScalar(b))
    }
    def mapPred(pr: Pred): Pred = Pred(mapScalar(pr.left), pr.op, mapScalar(pr.right))
    p match {
      case s: Scan          => s
      case Filter(pr, c)    => Filter(mapPred(pr), c)
      case Join(jt, l, r, c) => Join(jt, l, r, mapPred(c))
      case Project(cols, c) => Project(cols.map(mapRef), c)
    }
  }

  /** Instance-based encoding: references keyed by their real names (§4.1). */
  def encodeInstance(plan: Plan, config: EncoderConfig): EncodedPlan =
    encode(plan, config, identity, r => s"${r.table}.${r.column}")
}
