package repro

import java.util.stream.IntStream
import scala.reflect.ClassTag

/** Index-parallel evaluation on the common `ForkJoinPool`. */
object Par {

  /** `Array(f(0), …, f(n − 1))`, with the calls spread over every core.
    * Slot `k` holds `f(k)` whatever order the calls run in, so reading the
    * array in index order gives exactly the serial result. `f` must be safe
    * to call from several threads at once. A one-element input runs on the
    * calling thread.
    */
  def tabulate[T: ClassTag](n: Int)(f: Int => T): Array[T] = {
    val out = new Array[T](n)
    IntStream.range(0, n).parallel().forEach(k => out(k) = f(k))
    out
  }
}
