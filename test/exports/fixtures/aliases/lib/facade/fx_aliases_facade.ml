module X = Fx_aliases.X

module Nested = struct
  include Fx_aliases.X
end
