package perfbench

import org.apache.spark.sql.DataFrame

import repro.core.vec.{TopK, VectorOps}
import repro.workload.{Template, Workload}

/** The generated table, collected once on the driver: the benchmark's own
  * copy of every stored vector and attribute, used for ground truth and for
  * checking served answers. Nothing here calls into the engine.
  */
final class Corpus(val ids: Array[Long], val vecs: Array[Array[Float]],
                   val attrs: Array[Array[Any]], attrCols: Seq[String]) {
  val n: Int = ids.length
  private val rowOfId: java.util.HashMap[java.lang.Long, Integer] = {
    val m = new java.util.HashMap[java.lang.Long, Integer](n * 2)
    var i = 0
    while (i < n) { m.put(ids(i), i); i += 1 }
    m
  }
  private val attrPos: Map[String, Int] = attrCols.zipWithIndex.toMap

  def rowOf(id: Long): Int = { val r = rowOfId.get(id); if (r == null) -1 else r.intValue }

  def satisfies(row: Int, t: Template): Boolean =
    t.preds.forall(p => p.evalValue(attrPos.get(p.attr).map(attrs(row)(_)).orNull))

  private val matchCache = scala.collection.mutable.HashMap.empty[Int, Array[Int]]

  /** Rows satisfying the template's conjunction, by re-evaluating [[Pred]]. */
  def matching(t: Template): Array[Int] =
    matchCache.getOrElseUpdate(t.id, (0 until n).filter(satisfies(_, t)).toArray)

  /** Exact hybrid top-k by brute force, ties broken by id:
    * `qid -> (id, score)` best-first, the engine's result format.
    */
  def groundTruth(w: Workload): Map[Long, Array[(Long, Float)]] = {
    w.templates.foreach(matching)
    val out = new Array[(Long, Array[(Long, Float)])](w.size)
    java.util.stream.IntStream.range(0, w.size).parallel().forEach { qi =>
      val q = w.queries(qi)
      val rows = matchCache(q.templateId)
      val heap = new TopK(w.k)
      var i = 0
      while (i < rows.length) { heap.push(w.metric.score(q.vec, vecs(rows(i))), ids(rows(i))); i += 1 }
      out(qi) = q.qid -> heap.sorted.map { case (s, id) => (id, s) }
    }
    out.toMap
  }
}

object Corpus {
  def collect(db: DataFrame, attrCols: Seq[String]): Corpus = {
    val rows = db.select("id", "vec" +: attrCols: _*).orderBy("id").collect()
    val ids = rows.map(_.getLong(0))
    val vecs = rows.map(_.getSeq[Float](1).toArray)
    val attrs = rows.map(r => Array.tabulate[Any](attrCols.length)(j => if (r.isNullAt(j + 2)) null else r.get(j + 2)))
    new Corpus(ids, vecs, attrs, attrCols)
  }
}

/** Checks one pass's answers. A served query fails when its answer has
  * more than k rows, repeats an id, returns an id whose stored attributes
  * fail the template, is out of (score, id) order, or reports a score that
  * disagrees with `Metric.score` on the stored vector beyond float rounding.
  *
  * A `complete` pass (an exhaustive one) must also answer every query with
  * min(k, matching rows) rows. A tuned-nprobe pass may legitimately return
  * fewer, or none, when its probed cells hold fewer matches: that is the
  * approximation `recall_at_10` charges for, not a wrong answer.
  */
final class Checker(corpus: Corpus, w: Workload) {
  private val qidToQuery = w.queries.iterator.map(q => q.qid -> q).toMap
  val failures = scala.collection.mutable.ArrayBuffer.empty[String]

  /** Number of failed queries among `served`. */
  def check(served: Seq[Long], results: Map[Long, Array[(Long, Float)]], complete: Boolean): Int =
    served.count { qid =>
      val why = problem(qid, results.get(qid), complete)
      why.foreach(m => if (failures.size < 20) failures += s"qid $qid: $m")
      why.isDefined
    }

  private def problem(qid: Long, answer: Option[Array[(Long, Float)]], complete: Boolean): Option[String] = {
    val q = qidToQuery(qid)
    val t = w.templateById(q.templateId)
    val rs = answer.getOrElse(Array.empty)
    if (complete) {
      val need = math.min(w.k, corpus.matching(t).length)
      if (answer.isEmpty && need > 0) return Some("answer missing")
      if (rs.length < need) return Some(s"${rs.length} rows < min(k, matching) = $need")
    }
    if (rs.length > w.k) return Some(s"${rs.length} rows > k = ${w.k}")
    if (rs.map(_._1).distinct.length != rs.length) return Some("repeated id")
    var i = 0
    while (i < rs.length) {
      val (id, score) = rs(i)
      val row = corpus.rowOf(id)
      if (row < 0) return Some(s"unknown id $id")
      if (!corpus.satisfies(row, t)) return Some(s"id $id fails template ${t.name}")
      val v = corpus.vecs(row)
      val exact = w.metric.score(q.vec, v)
      val scale = VectorOps.dot(q.vec, q.vec).toDouble + VectorOps.dot(v, v) + 1.0
      if (math.abs(exact - score) > Checker.ScoreTol * scale)
        return Some(s"id $id score $score != Metric.score $exact")
      if (i > 0) {
        val (pid, ps) = rs(i - 1)
        if (ps > score || (ps == score && pid > id)) return Some(s"out of (score, id) order at rank $i")
      }
      i += 1
    }
    None
  }
}

object Checker {
  /** Relative score tolerance against `‖q‖² + ‖v‖² + 1`, which bounds both
    * metrics' magnitudes: float sums over d = 32 terms round within
    * d·2⁻²⁴ ≈ 2e-6 of that; this allows five times as much.
    */
  val ScoreTol = 1e-5
}
