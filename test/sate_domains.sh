#!/bin/sh
# An invalid SATE_DOMAINS must stop the program with a non-zero exit
# and an error naming the variable, not fall back to the core count.
# Only invalid values are tried: a valid large one spawns that many
# domains.  Usage: sate_domains.sh PATH-TO-SATE
sate=$1
for v in 0 abc; do
  err=$(SATE_DOMAINS=$v "$sate" traffic 2>&1 >/dev/null)
  status=$?
  if [ "$status" -eq 0 ]; then
    echo "SATE_DOMAINS=$v: expected a non-zero exit" >&2
    exit 1
  fi
  case $err in
    *SATE_DOMAINS*) ;;
    *)
      echo "SATE_DOMAINS=$v: stderr does not name the variable: $err" >&2
      exit 1
      ;;
  esac
done
