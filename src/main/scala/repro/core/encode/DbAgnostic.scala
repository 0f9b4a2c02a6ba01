package repro.core.encode

import repro.core.ir.Canon
import repro.core.ir.Ir._

/** DB-agnostic encoding (§4.2): generalize a group of subexpressions into a
  * symbolic pattern by replacing real table/column names with symbols
  * `t1..tn` / `ti.c1..ti.cm` assigned in alphanumeric order of the
  * *referenced* names. Two paths produce identical encodings:
  *
  *  - the direct path symbolizes plans, then instance-encodes them under the
  *    symbolic config;
  *  - the converter path (§4.2.1) takes already-computed instance encodings,
  *    masks out unreferenced table/column dimensions (column-wise union
  *    across the group), and scatters the surviving dimensions into the
  *    symbolic layout — O(n) instance encodings + a cheap per-pair pass.
  *
  * Both paths are n-ary (§4.2.2): the mask is the union over all plans in
  * the group, which is how the VMF encodes whole SF-groups.
  */
object DbAgnostic {

  final case class SymbolMap(table: Map[String, String], col: Map[ColRef, String]) {
    def tableKey(t: String): String = table.getOrElse(t, "t?")
    def colKey(r: ColRef): String   = col.getOrElse(r, "c?")
  }

  /** Base tables and base-table-qualified columns referenced by `plan`
    * (predicates + projection; §4.2 "only the columns actually referenced").
    */
  def referenced(plan: Plan): (Set[String], Set[ColRef]) = {
    val aliasToTable = plan.atoms.map(a => a.alias -> a.table).toMap
    def base(r: ColRef): ColRef = ColRef(aliasToTable.getOrElse(r.table, r.table), r.column)
    val tables = plan.atoms.map(_.table).toSet
    val predCols = repro.core.ir.Sql.collectPreds(plan).flatMap(_.cols).map(base)
    val projCols = Canon.flatten(plan).proj.map(base)
    (tables, (predCols ++ projCols).toSet)
  }

  /** Joint symbolization of a group of plans: referenced tables sorted
    * alphanumerically become t1..; each table's referenced columns sorted
    * become ti.c1... Overflow beyond the agnostic config's capacity yields
    * out-of-vocabulary symbols that the encoder drops (clamping).
    */
  def symbols(plans: Seq[Plan]): SymbolMap = {
    val refs = plans.map(referenced)
    val tables = refs.flatMap(_._1).distinct.sorted
    val cols   = refs.flatMap(_._2).toSet
    val tMap   = tables.zipWithIndex.map { case (t, i) => t -> s"t${i + 1}" }.toMap
    val cMap = tables.flatMap { t =>
      cols.filter(_.table == t).toSeq.sortBy(_.column).zipWithIndex.map {
        case (r, j) => r -> s"${tMap(t)}.c${j + 1}"
      }
    }.toMap
    SymbolMap(tMap, cMap)
  }

  /** Direct db-agnostic path: symbolize then encode (NV_α of §4.2). */
  def encodeDirect(plans: Seq[Plan], agn: EncoderConfig): Seq[EncodedPlan] = {
    val sym = symbols(plans)
    plans.map(p => NodeVector.encode(p, agn, sym.tableKey, sym.colKey))
  }

  /** Converter path (§4.2.1): instance encodings → db-agnostic encodings via
    * mask elimination + scatter. `group` must hold the instance encodings of
    * every plan whose references participate in the joint symbolization.
    */
  def convert(group: Seq[EncodedPlan], inst: EncoderConfig, agn: EncoderConfig): Seq[EncodedPlan] = {
    val maxTables = agn.nT
    val maxCols   = agn.nC / agn.nT

    // Column-wise union masks across every node of every plan in the group.
    val tMask = new Array[Boolean](inst.nT)
    val cMask = new Array[Boolean](inst.nC)
    group.foreach(_.nodes.foreach { v =>
      var i = 0
      while (i < inst.nT) { if (v(inst.offTable + i) != 0) tMask(i) = true; i += 1 }
      var j = 0
      while (j < inst.nC) {
        if (v(inst.offJoinCl + j) != 0 || v(inst.offJoinCr + j) != 0 ||
            v(inst.offSelCol + j) != 0 || v(inst.offProj + j) != 0) cMask(j) = true
        j += 1
      }
    })

    // Rank surviving tables, and surviving columns within their table;
    // instance dims are sorted, so rank order is the symbolization order.
    // Targets are slots in the symbolic layout, or -1 (overflow).
    val tableTarget = Array.fill(inst.nT)(-1)
    val tableRank = new Array[Int](inst.nT)
    var rank = 0
    var i = 0
    while (i < inst.nT) {
      if (tMask(i)) {
        tableRank(i) = rank
        if (rank < maxTables) tableTarget(i) = rank
        rank += 1
      }
      i += 1
    }
    val colTarget = Array.fill(inst.nC)(-1)
    val perTableCount = new Array[Int](inst.nT)
    var j = 0
    while (j < inst.nC) {
      val t = inst.columnTable(j)
      if (cMask(j) && t >= 0 && tMask(t)) {
        val cRank = perTableCount(t)
        perTableCount(t) = cRank + 1
        if (tableRank(t) < maxTables && cRank < maxCols) colTarget(j) = tableRank(t) * maxCols + cRank
      }
      j += 1
    }

    def scatter(src: Array[Double], srcOff: Int, dst: Array[Double], dstOff: Int,
                target: Array[Int]): Unit = {
      var k = 0
      while (k < target.length) {
        if (target(k) >= 0 && src(srcOff + k) != 0) dst(dstOff + target(k)) += src(srcOff + k)
        k += 1
      }
    }

    group.map { ep =>
      val nodes = ep.nodes.map { v =>
        val out = new Array[Double](agn.nvSize)
        scatter(v, inst.offTable, out, agn.offTable, tableTarget)
        scatter(v, inst.offJoinCl, out, agn.offJoinCl, colTarget)
        scatter(v, inst.offJoinCr, out, agn.offJoinCr, colTarget)
        scatter(v, inst.offSelCol, out, agn.offSelCol, colTarget)
        scatter(v, inst.offProj, out, agn.offProj, colTarget)
        System.arraycopy(v, inst.offJoinOp, out, agn.offJoinOp, inst.nOps)
        System.arraycopy(v, inst.offJoinJt, out, agn.offJoinJt, inst.nJoins)
        System.arraycopy(v, inst.offSelOp, out, agn.offSelOp, inst.nOps)
        out(agn.offSelNorm) = v(inst.offSelNorm)
        out(agn.offSelNull) = v(inst.offSelNull)
        out
      }
      EncodedPlan(nodes, ep.left, ep.right)
    }
  }

  /** Pairwise db-agnostic encoding via the fast converter (§4.2.1). */
  def encodePair(p: EncodedPlan, q: EncodedPlan, inst: EncoderConfig,
                 agn: EncoderConfig): (EncodedPlan, EncodedPlan) = {
    val Seq(a, b) = convert(Seq(p, q), inst, agn)
    (a, b)
  }
}
