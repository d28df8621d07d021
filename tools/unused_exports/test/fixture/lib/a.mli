val used : int
val via_alias : int
val via_let_alias : int
val unused : int
module Nested : sig
  val used : int
  val unused : int
end
