#include "apps/airline/airline.hpp"

#include <sstream>

namespace apps::airline {

std::string person_name(Person p) { return "P" + std::to_string(p); }

std::string Update::to_string() const {
  switch (kind) {
    case Kind::kNoop:
      return "noop";
    case Kind::kRequest:
      return "request(" + person_name(person) + ")";
    case Kind::kCancel:
      return "cancel(" + person_name(person) + ")";
    case Kind::kMoveUp:
      return "move-up(" + person_name(person) + ")";
    case Kind::kMoveDown:
      return "move-down(" + person_name(person) + ")";
  }
  return "?";
}

std::string Request::to_string() const {
  switch (kind) {
    case Kind::kRequest:
      return "REQUEST(" + person_name(person) + ")";
    case Kind::kCancel:
      return "CANCEL(" + person_name(person) + ")";
    case Kind::kMoveUp:
      return "MOVE-UP";
    case Kind::kMoveDown:
      return "MOVE-DOWN";
  }
  return "?";
}

std::string State::to_string() const {
  std::ostringstream os;
  const auto list = [&os](std::span<const Person> l) {
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (i) os << ",";
      os << person_name(l[i]);
    }
  };
  os << "AL=[";
  list(assigned());
  os << "] WL=[";
  list(waiting());
  os << "]";
  return os.str();
}

}  // namespace apps::airline
