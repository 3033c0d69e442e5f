#!/usr/bin/env sh
# inline_check.sh — asserts that the metering shell stays inlinable.
#
# Every instrumented mem.Array Get and Set calls forkjoin.(*Ctx).Access;
# with no meter attached that call must compile to a nil check inside the
# caller, not a function call. The same holds for the unit-cost charge
# (*Ctx).Op and the cancellation checkpoint (*Ctx).Check. This script reads
# the compiler's inlining decisions and fails if any of the three is no
# longer inlinable.
set -eu

cd "$(dirname "$0")/.."

out="$(go build -gcflags=-m ./internal/forkjoin ./internal/mem 2>&1)"

fail=0
for fn in Access Op Check; do
	if ! printf '%s\n' "$out" | grep -q "can inline (\*Ctx)\.$fn\$"; then
		echo "inline-check: forkjoin.(*Ctx).$fn is not inlinable" >&2
		fail=1
	fi
done
if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "inline-check: (*Ctx).Access, Op and Check are inlinable"
