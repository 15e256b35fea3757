package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Waits until every event posted so far has reached every listener.
  *
  * Listener delivery is asynchronous; counts read right after an action
  * would otherwise miss its last task-end events. The bus is private to
  * Spark, hence this file's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
